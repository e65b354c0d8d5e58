package registry

// MemoNodes is the topology memo's bound, for the external tests.
const MemoNodes = memoNodes
