// Package encoding constructs and validates timestamp encodings.
//
// An encoding assigns each clock-cycle i of a trace-cycle (0-based,
// i in [0, m)) a unique nonzero b-bit timestamp TS(i). The paper
// requires injectivity and, to bound reconstruction ambiguity, linear
// independence up to a depth d (every subset of at most d timestamps is
// linearly independent over F2; the paper fixes d = 4). Two generators
// from Section 5.1.2 are provided:
//
//   - Incremental: start from the smallest value satisfying LI-d, then
//     keep incrementing and retaining candidates that preserve LI-d
//     (a greedy lexicode construction). It yields the smallest b.
//   - RandomConstrained: draw timestamps uniformly at random, keeping
//     those that preserve LI-d. It needs a larger b for the same m.
//
// One-hot (b = m, zero ambiguity) and plain binary (b = ⌈log2(m+1)⌉,
// ambiguous) encodings bracket the design space for the ablation
// benchmarks.
package encoding

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/gf2"
)

// MaxWidth bounds the timestamp width the uint64-backed generators
// accept.
const MaxWidth = 62

// Encoding is an injective map from clock-cycles to b-bit timestamps.
type Encoding struct {
	scheme string
	ts     []bitvec.Vector // ts[i] is TS(i), width b
	b      int
	depth  int // LI depth the generator guaranteed, 0 if none
	a      *gf2.Matrix
}

// newEncoding assembles an encoding with its parity matrix, built once
// here and then shared read-only by every reconstruction request.
func newEncoding(scheme string, ts []bitvec.Vector, b, depth int) *Encoding {
	return &Encoding{scheme: scheme, ts: ts, b: b, depth: depth, a: gf2.FromColumns(ts)}
}

// Scheme names the generator that produced the encoding.
func (e *Encoding) Scheme() string { return e.scheme }

// M returns the trace-cycle length (number of timestamps).
func (e *Encoding) M() int { return len(e.ts) }

// B returns the timestamp width in bits.
func (e *Encoding) B() int { return e.b }

// Depth returns the linear-independence depth guaranteed at
// construction (0 when the generator makes no such guarantee).
func (e *Encoding) Depth() int { return e.depth }

// Timestamp returns TS(i) for clock-cycle i in [0, M).
func (e *Encoding) Timestamp(i int) bitvec.Vector { return e.ts[i].Clone() }

// Timestamps returns copies of all timestamps in clock-cycle order.
func (e *Encoding) Timestamps() []bitvec.Vector {
	out := make([]bitvec.Vector, len(e.ts))
	for i, t := range e.ts {
		out[i] = t.Clone()
	}
	return out
}

// Matrix returns A = [TS(0) | … | TS(m−1)] ∈ F2^{b×m}. The matrix is
// built with the encoding, and every call, from any goroutine, returns
// the same one: callers must treat it as read-only. Eliminate, Solve,
// Rank and MulVec never modify it; Clone it before any Set.
func (e *Encoding) Matrix() *gf2.Matrix { return e.a }

// FromTimestamps wraps explicit timestamps (all one width) as an
// encoding, validating injectivity and nonzero-ness. Use this for
// hand-specified encodings such as the paper's Figure 4 table.
func FromTimestamps(ts []bitvec.Vector, scheme string) (*Encoding, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("encoding: no timestamps")
	}
	b := ts[0].Width()
	seen := map[string]int{}
	cp := make([]bitvec.Vector, len(ts))
	for i, t := range ts {
		if t.Width() != b {
			return nil, fmt.Errorf("encoding: timestamp %d has width %d, want %d", i, t.Width(), b)
		}
		if t.IsZero() {
			return nil, fmt.Errorf("encoding: timestamp %d is zero", i)
		}
		if j, dup := seen[t.Key()]; dup {
			return nil, fmt.Errorf("encoding: timestamps %d and %d are equal", j, i)
		}
		seen[t.Key()] = i
		cp[i] = t.Clone()
	}
	return newEncoding(scheme, cp, b, 0), nil
}

// OneHot returns the one-hot encoding with b = m: TS(i) = e_i. All m
// timestamps are linearly independent, so reconstruction is always
// unambiguous, at the cost of an m-bit timeprint.
func OneHot(m int) *Encoding {
	ts := make([]bitvec.Vector, m)
	for i := range ts {
		ts[i] = bitvec.FromOnes(m, i)
	}
	return newEncoding("one-hot", ts, m, m)
}

// Binary returns the plain binary encoding TS(i) = i+1 with
// b = ⌈log2(m+1)⌉ — maximally compact and maximally ambiguous
// (guaranteed LI depth 2 only: values are distinct and nonzero).
func Binary(m int) *Encoding {
	b := bits.Len(uint(m))
	ts := make([]bitvec.Vector, m)
	for i := range ts {
		ts[i] = bitvec.FromUint(uint64(i+1), b)
	}
	return newEncoding("binary", ts, b, 2)
}

// liState incrementally maintains the data needed to test whether a
// candidate preserves linear independence of depth d (d <= 4): the
// accepted set S, and for d >= 3 the set of pairwise XORs P. A
// candidate c keeps LI-d iff
//
//	d>=1: c != 0;  d>=2: c ∉ S;  d>=3: c ∉ P;  d>=4: ∀a∈S: c^a ∉ P.
//
// Two representations are used. For widths up to bitmapMaxB a "blocked"
// bitmap of 2^b bits answers admissibility in O(1): on accepting c we
// pre-mark every value a future candidate must avoid (c itself, c^a for
// all accepted a, and — for depth 4 — c^p for every pairwise XOR p),
// which makes the greedy incremental generator O(m³/6) total instead of
// O(candidates·m) map probes. Wider encodings fall back to hash sets.
type liState struct {
	d    int
	s    []uint64
	p    []uint64 // pairwise XORs, kept only when the bitmap is in use and d >= 4
	sSet map[uint64]struct{}
	pSet map[uint64]struct{}

	blocked []uint64 // bitmap of 2^b bits, nil in hash mode
}

// bitmapMaxB caps bitmap memory at 2^27 bits = 16 MiB.
const bitmapMaxB = 27

func newLIState(d, b int) *liState {
	st := &liState{d: d}
	if b <= bitmapMaxB {
		st.blocked = make([]uint64, (1<<uint(b))/64+1)
	} else {
		st.sSet = map[uint64]struct{}{}
		st.pSet = map[uint64]struct{}{}
	}
	return st
}

func (st *liState) mark(v uint64) { st.blocked[v/64] |= 1 << (v % 64) }

func (st *liState) admissible(c uint64) bool {
	if c == 0 {
		return false
	}
	if st.blocked != nil {
		return st.blocked[c/64]&(1<<(c%64)) == 0
	}
	if st.d >= 2 {
		if _, ok := st.sSet[c]; ok {
			return false
		}
	}
	if st.d >= 3 {
		if _, ok := st.pSet[c]; ok {
			return false
		}
	}
	if st.d >= 4 {
		for _, a := range st.s {
			if _, ok := st.pSet[c^a]; ok {
				return false
			}
		}
	}
	return true
}

func (st *liState) accept(c uint64) {
	if st.blocked != nil {
		if st.d >= 2 {
			st.mark(c)
		}
		if st.d >= 3 {
			for _, a := range st.s {
				st.mark(c ^ a)
			}
		}
		if st.d >= 4 {
			for _, p := range st.p {
				st.mark(c ^ p)
			}
			for _, a := range st.s {
				st.p = append(st.p, c^a)
			}
		}
		st.s = append(st.s, c)
		return
	}
	if st.d >= 3 {
		for _, a := range st.s {
			st.pSet[c^a] = struct{}{}
		}
	}
	st.s = append(st.s, c)
	st.sSet[c] = struct{}{}
}

// Incremental generates m timestamps of width b by the paper's greedy
// heuristic: try candidate values 1, 2, 3, … and keep each candidate
// that preserves linear independence of depth d. It returns an error if
// fewer than m admissible values exist below 2^b, which signals that b
// is too small for this (m, d).
func Incremental(m, b, d int) (*Encoding, error) {
	if err := checkParams(m, b, d); err != nil {
		return nil, err
	}
	st := newLIState(d, b)
	ts := make([]bitvec.Vector, 0, m)
	limit := uint64(1) << uint(b)
	for c := uint64(1); c < limit && len(ts) < m; c++ {
		if !st.admissible(c) {
			continue
		}
		st.accept(c)
		ts = append(ts, bitvec.FromUint(c, b))
	}
	if len(ts) < m {
		return nil, fmt.Errorf("encoding: incremental LI-%d exhausted 2^%d values after %d of %d timestamps", d, b, len(ts), m)
	}
	return newEncoding("incremental", ts, b, d), nil
}

// RandomConstrained generates m timestamps of width b by drawing
// uniform random values and keeping those that preserve linear
// independence of depth d, per Section 5.1.2. The seed makes runs
// reproducible. It gives up after maxDraws failed draws in a row
// (default 1<<16 when maxDraws <= 0), which signals b is too small.
func RandomConstrained(m, b, d int, seed int64, maxDraws int) (*Encoding, error) {
	if err := checkParams(m, b, d); err != nil {
		return nil, err
	}
	if maxDraws <= 0 {
		maxDraws = 1 << 16
	}
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<uint(b) - 1
	st := newLIState(d, b)
	ts := make([]bitvec.Vector, 0, m)
	fails := 0
	for len(ts) < m {
		c := rng.Uint64() & mask
		if !st.admissible(c) {
			fails++
			if fails > maxDraws {
				return nil, fmt.Errorf("encoding: random LI-%d stuck after %d draws at %d of %d timestamps (b=%d too small?)", d, fails, len(ts), m, b)
			}
			continue
		}
		fails = 0
		st.accept(c)
		ts = append(ts, bitvec.FromUint(c, b))
	}
	return newEncoding("random-constrained", ts, b, d), nil
}

func checkParams(m, b, d int) error {
	if m <= 0 {
		return fmt.Errorf("encoding: m = %d must be positive", m)
	}
	if b <= 0 || b > MaxWidth {
		return fmt.Errorf("encoding: b = %d out of range (0, %d]", b, MaxWidth)
	}
	if d < 1 || d > 4 {
		return fmt.Errorf("encoding: LI depth %d not supported (1..4)", d)
	}
	return nil
}

// MinimalB searches for the smallest b for which the incremental LI-d
// generator can produce m timestamps — the paper's open "smallest
// possible b" question answered by the same practical heuristic the
// authors use. The search starts at the information-theoretic lower
// bound ⌈log2(m+1)⌉ and stops at maxB (default MaxWidth when <= 0).
func MinimalB(m, d, maxB int) (*Encoding, error) {
	if maxB <= 0 {
		maxB = MaxWidth
	}
	for b := bits.Len(uint(m)); b <= maxB; b++ {
		if e, err := Incremental(m, b, d); err == nil {
			return e, nil
		}
	}
	return nil, fmt.Errorf("encoding: no b <= %d supports m=%d at LI-%d", maxB, m, d)
}

// VerifyDepth exhaustively checks that every nonempty subset of at most
// d timestamps is linearly independent, i.e. no subset of size <= d
// XORs to zero. Cost grows as C(m, d); intended for tests and for
// small-to-moderate m.
func VerifyDepth(e *Encoding, d int) error {
	m := len(e.ts)
	idx := make([]int, d)
	var rec func(start, depth int, acc bitvec.Vector) error
	rec = func(start, depth int, acc bitvec.Vector) error {
		if depth > 0 && acc.IsZero() {
			return fmt.Errorf("encoding: timestamps %v XOR to zero", append([]int(nil), idx[:depth]...))
		}
		if depth == d {
			return nil
		}
		for i := start; i < m; i++ {
			idx[depth] = i
			if err := rec(i+1, depth+1, acc.Xor(e.ts[i])); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, 0, bitvec.New(e.b))
}
