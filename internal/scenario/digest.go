package scenario

// DigestPrefix tags scenario and result digests with the hash they carry,
// so digests are self-describing when they travel through logs, HTTP
// responses, and CI gates.
const DigestPrefix = "sha256:"

// Digest returns the scenario's canonical content address:
// "sha256:<hex>" over the canonical Marshal form. Because Marshal∘Load is
// a fixed point, every JSON spelling of the same workload — singular or
// plural axes, omitted defaults, unreduced rationals — digests to the same
// value, so the digest is a stable cache key for "this exact family of
// runs". Digest validates the scenario first and fails on invalid ones;
// it is computed once, with the canonical bytes, and kept.
func (sc *Scenario) Digest() (string, error) {
	if _, err := sc.Marshal(); err != nil {
		return "", err
	}
	return sc.canon.digest, nil
}
