package adversary

import (
	"fmt"
	"math"
	"math/bits"

	"smallbuffers/internal/network"
)

// shaperMax bounds everything the shaper stores: q·σ + p, and the amount
// off may fall before it is folded into the values. Either is at most
// shaperMax, so a stored value, at most q·σ + p − off, and every tag
// stay far inside int64.
const shaperMax = math.MaxInt64 / 4

// blockLen is the number of positions in one leaf of the shaper's tree. A
// leaf's positions are scanned directly, so a network of up to blockLen
// nodes is one leaf and its routes cost what their length does.
const (
	blockBits = 4
	blockLen  = 1 << blockBits
)

// shaper admits packets one at a time so that ξ never exceeds σ at any
// buffer (see the package doc for the representation). Position i of the
// network's heavy-chain preorder holds val[i] in block i/blockLen, and
// block b is leaf nb+b of a bottom-up segment tree: node k < nb covers
// nodes 2k and 2k+1. mx[k] is the largest value under node k with the
// tags of k and below applied, and every node k, leaves included, has a
// tag x ↦ max(x, c[k]) + a[k] not yet passed to what lies below it. Every
// stored value is ≥ 0, so the tag (0, 0) is the identity.
type shaper struct {
	nw    *network.Network
	p, q  int64
	limit int64 // q·σ + p: a packet fits at v while q·ξ(v) + q ≤ limit
	off   int64
	val   []int64
	nb, h int // blocks, and the height above them: bits.Len(nb)
	mx    []int64
	c, a  []int64
}

// newShaper returns a shaper with ξ ≡ 0 for bound b on nw.
func newShaper(nw *network.Network, b Bound) (*shaper, error) {
	p, q := b.Rho.Num(), b.Rho.Den()
	if p > shaperMax || int64(b.Sigma) > (shaperMax-p)/q {
		return nil, fmt.Errorf("adversary: burst σ=%d too large at ρ=%v", b.Sigma, b.Rho)
	}
	n := nw.Len()
	nb := (n + blockLen - 1) / blockLen
	vals := make([]int64, n+6*nb)
	return &shaper{nw: nw, p: p, q: q, limit: q*int64(b.Sigma) + p, nb: nb, h: bits.Len(uint(nb)),
		val: vals[:n:n], mx: vals[n : n+2*nb : n+2*nb], c: vals[n+2*nb : n+4*nb : n+4*nb], a: vals[n+4*nb:]}, nil
}

// admit charges one packet src→dst to the round in progress if every
// buffer on the route keeps ξ ≤ σ, and reports whether it did. dst must be
// reachable from src.
func (s *shaper) admit(src, dst network.NodeID) bool {
	if s.limit < s.q { // σ = 0 < 1 − ρ: no buffer takes a packet
		return src == dst
	}
	// A packet fits at v while max(s(v) + off, 0) ≤ limit − q, that is,
	// while s(v) ≤ top.
	top := s.limit - s.q - s.off
	for u := src; u != dst; {
		lo, hi, rest := s.nw.Span(u, dst)
		if !s.fits(lo, hi, top) {
			return false
		}
		u = rest
	}
	for u := src; u != dst; {
		lo, hi, rest := s.nw.Span(u, dst)
		s.raise(lo, hi, -s.off, s.q)
		u = rest
	}
	return true
}

// endRound closes the round in progress at every buffer at once:
// q·ξ ← max(q·ξ − p, 0).
func (s *shaper) endRound() {
	s.off -= s.p
	if s.off < -shaperMax {
		s.rebase()
	}
}

// rebase folds every tag and off into the stored values and sets off to
// 0, in O(n).
func (s *shaper) rebase() {
	for k := 1; k < s.nb; k++ { // parents before children
		s.pushNode(k)
	}
	for b := range s.nb {
		k := s.nb + b
		vals := s.block(b)
		m := int64(0)
		for i, v := range vals {
			v = max(max(v, s.c[k])+s.a[k]+s.off, 0)
			vals[i], m = v, max(m, v)
		}
		s.mx[k], s.c[k], s.a[k] = m, 0, 0
	}
	for k := s.nb - 1; k > 0; k-- {
		s.mx[k] = max(s.mx[2*k], s.mx[2*k+1])
	}
	s.off = 0
}

// block returns the values of block b.
func (s *shaper) block(b int) []int64 {
	return s.val[b*blockLen : min(b*blockLen+blockLen, len(s.val))]
}

// apply composes the tag x ↦ max(x, c) + a onto node k.
func (s *shaper) apply(k int, c, a int64) {
	s.mx[k] = max(s.mx[k], c) + a
	s.c[k] = max(s.c[k], c-s.a[k])
	s.a[k] += a
}

// pushNode passes internal node k's tag on to its children.
func (s *shaper) pushNode(k int) {
	if c, a := s.c[k], s.a[k]; c != 0 || a != 0 {
		s.apply(2*k, c, a)
		s.apply(2*k+1, c, a)
		s.c[k], s.a[k] = 0, 0
	}
}

// push passes down every tag above leaves i and j, root first.
func (s *shaper) push(i, j int) {
	for d := s.h; d > 0; d-- {
		if k := i >> d; k > 0 {
			s.pushNode(k)
		}
		if k := j >> d; k > 0 && k != i>>d {
			s.pushNode(k)
		}
	}
}

// rebuild recomputes the maxima above node i.
func (s *shaper) rebuild(i int) {
	for i > 1 {
		i >>= 1
		s.mx[i] = max(s.mx[2*i], s.mx[2*i+1], s.c[i]) + s.a[i]
	}
}

// climb returns x, read at node k, with the tags above k applied, nearest
// first.
func (s *shaper) climb(k int, x int64) int64 {
	for k > 1 {
		k >>= 1
		x = max(x, s.c[k]) + s.a[k]
	}
	return x
}

// tagOf returns the tags of leaf k and of its ancestors, composed nearest
// first into one: x ↦ max(x, c) + a.
func (s *shaper) tagOf(k int) (c, a int64) {
	c, a = s.c[k], s.a[k]
	for k > 1 {
		k >>= 1
		c, a = max(c, s.c[k]-a), a+s.a[k]
	}
	return c, a
}

// fits reports whether every value at positions lo..hi, with its tags
// applied, is at most top. It only reads.
func (s *shaper) fits(lo, hi int, top int64) bool {
	bl, br := lo>>blockBits, hi>>blockBits
	if bl == br {
		return s.blockFits(bl, lo, hi, top)
	}
	return s.blockFits(bl, lo, bl*blockLen+blockLen-1, top) && s.blockFits(br, br*blockLen, hi, top) &&
		(bl+1 == br || s.blocksMax(bl+1, br-1) <= top)
}

// blockFits is fits for positions lo..hi of block b. Their tags compose to
// one, x ↦ max(x, c) + a, so a value fits while c + a ≤ top and the
// stored value is at most top − a.
func (s *shaper) blockFits(b, lo, hi int, top int64) bool {
	c, a := s.tagOf(s.nb + b)
	top -= a
	if c > top {
		return false
	}
	for _, v := range s.val[lo : hi+1] {
		if v > top {
			return false
		}
	}
	return true
}

// blocksMax returns the largest value in blocks bl..br. Every node read on
// the left lies below the ancestors of block bl, which the left maximum
// passes on its way up, and likewise on the right, so each side takes the
// tags above it, nearest first; −1 stands for nothing read yet.
func (s *shaper) blocksMax(bl, br int) int64 {
	l, r := s.nb+bl, s.nb+br+1
	lp, rp := l, r-1
	left, right := int64(-1), int64(-1)
	tagged := func(k int, x int64) int64 {
		if x < 0 {
			return x
		}
		return max(x, s.c[k]) + s.a[k]
	}
	for l < r {
		if l&1 == 1 {
			left = max(left, s.mx[l])
			l++
		}
		if r&1 == 1 {
			r--
			right = max(right, s.mx[r])
		}
		l, r, lp, rp = l>>1, r>>1, lp>>1, rp>>1
		left, right = tagged(lp, left), tagged(rp, right)
	}
	return max(s.climb(lp, left), s.climb(rp, right))
}

// raise applies x ↦ max(x, c) + a to the values at positions lo..hi: to
// the whole blocks between the end blocks through the tree, and to the
// end blocks' positions directly. Every node the loop over the whole
// blocks tags has its sibling outside them, so its parent lies above
// block bl or block br (their leaf indices, shifted right): pushing and
// rebuilding above the end blocks covers every tagged node's ancestors.
func (s *shaper) raise(lo, hi int, c, a int64) {
	bl, br := lo>>blockBits, hi>>blockBits
	s.push(s.nb+bl, s.nb+br)
	for l, r := s.nb+bl+1, s.nb+br; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			s.apply(l, c, a)
			l++
		}
		if r&1 == 1 {
			r--
			s.apply(r, c, a)
		}
	}
	s.raiseBlock(bl, lo, min(hi, bl*blockLen+blockLen-1), c, a)
	if br != bl {
		s.raiseBlock(br, br*blockLen, hi, c, a)
	}
	s.rebuild(s.nb + bl)
	s.rebuild(s.nb + br)
}

// raiseBlock applies x ↦ max(x, c) + a, with a ≥ 0, to positions lo..hi
// of block b, after passing the block's own tag to its values. The tags
// above the block must be pushed down already.
func (s *shaper) raiseBlock(b, lo, hi int, c, a int64) {
	k := s.nb + b
	if bc, ba := s.c[k], s.a[k]; bc != 0 || ba != 0 {
		vals := s.block(b)
		for i, v := range vals {
			vals[i] = max(v, bc) + ba
		}
		s.c[k], s.a[k] = 0, 0
	}
	// Raising only increases values, so the block's maximum is the larger
	// of its maximum so far and the raised values.
	m := s.mx[k]
	for i := lo; i <= hi; i++ {
		v := max(s.val[i], c) + a
		s.val[i], m = v, max(m, v)
	}
	s.mx[k] = m
}
