// Package fleet is the distribution tier: a coordinator that splits one
// scenario's sweep grid into deterministic index-range shards, dispatches
// them to a fleet of aqtserve daemons, and merges the streamed per-cell
// records back into the exact record set — and RecordsDigest — of a
// local single-process run.
//
// # Correctness model
//
// Cell indices are a global property of the grid (see harness.Cell), so
// shards are just index ranges and the merge is mechanical: collect every
// cell exactly once, sort by index, digest. The coordinator enforces
// "exactly once" structurally — every record is committed on arrival to
// a merge (the caller's store, or an in-memory grid) that refuses an
// index it already holds, and whenever a shard ends early (its daemon
// died, a thief stole it, the daemon cancelled it) only its uncovered
// remainder is re-enqueued — so the merged digest either equals the
// local digest or the run errors. There is no "close enough".
//
// # Determinism discipline
//
// Simulation results never depend on the fleet: scheduling, retries,
// steals, and daemon failures change only where cells execute. Wall-clock
// time is confined to the injected Clock (aqtlint's nowallclock analyzer
// covers this package), so tests drive backoff deterministically.
package fleet

import "smallbuffers/internal/live"

// Clock abstracts the coordinator's only uses of wall time: stamping the
// fleet summary and sleeping for backoff. Injecting it keeps retry
// schedules testable and keeps time.Now out of digest-adjacent code.
// The canonical definition lives in internal/live (the observation tier
// shares it and sits below both fleet and service in the import graph);
// the alias keeps every existing fleet.Clock caller source-compatible.
type Clock = live.Clock

// SystemClock returns the real-time Clock used outside tests. It is
// internal/live's system clock — the repository's one sanctioned
// wall-clock read.
func SystemClock() Clock { return live.SystemClock() }
