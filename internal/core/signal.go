// Package core implements the timeprint logging procedure — the paper's
// primary contribution.
//
// Tracing is split into back-to-back trace-cycles of m clock-cycles. A
// signal (in the paper's formal sense) is the change-map of one
// trace-cycle: S(i) = 1 iff the traced wire changed value in
// clock-cycle i. The logging procedure α̃ abstracts a signal to a log
// entry (TP, k), where TP is the XOR-aggregate of the encoded
// timestamps of the change cycles and k the change count. The package
// also provides the exhaustive concretization γ̃ used to validate the
// Galois-insertion soundness lemma, a streaming Logger that models the
// on-chip aggregation hardware cycle by cycle, and the bit-exact wire
// format of a timeprint log (b + ⌈log2(m+1)⌉ bits per trace-cycle).
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/encoding"
)

// Signal is a trace-cycle change-map: bit i is set iff the traced wire
// changed value in clock-cycle i of the trace-cycle. It corresponds to
// the paper's S : [1..m] → {0,1} (0-based here).
type Signal struct {
	bits bitvec.Vector
}

// NewSignal returns the all-quiet signal of a length-m trace-cycle.
func NewSignal(m int) Signal { return Signal{bits: bitvec.New(m)} }

// SignalFromChanges returns the signal with changes at the given
// clock-cycles.
func SignalFromChanges(m int, changes ...int) Signal {
	return Signal{bits: bitvec.FromOnes(m, changes...)}
}

// SignalFromVector wraps an existing change-map vector.
func SignalFromVector(v bitvec.Vector) Signal { return Signal{bits: v.Clone()} }

// M returns the trace-cycle length.
func (s Signal) M() int { return s.bits.Width() }

// Changed reports whether the signal changed in clock-cycle i.
func (s Signal) Changed(i int) bool { return s.bits.Get(i) }

// Changes returns the change clock-cycles in increasing order.
func (s Signal) Changes() []int { return s.bits.Ones() }

// K returns the number of changes.
func (s Signal) K() int { return s.bits.PopCount() }

// Vector returns a copy of the underlying change-map.
func (s Signal) Vector() bitvec.Vector { return s.bits.Clone() }

// Equal reports whether two signals have identical change-maps.
func (s Signal) Equal(o Signal) bool { return s.bits.Equal(o.bits) }

// Compare orders signals of one length as their Vector().Key() strings
// sort (see bitvec.Compare) without building the keys: the decoder's
// candidate order.
func (s Signal) Compare(o Signal) int { return bitvec.Compare(s.bits, o.bits) }

// String renders the change-map LSB-first (clock-cycle 0 leftmost), the
// reading order of the paper's Figure 4.
func (s Signal) String() string { return s.bits.LSBString() }

// LogEntry is the paper's (TP, k) pair: the logged abstraction of one
// trace-cycle.
type LogEntry struct {
	// TP is the timeprint: the XOR-sum of the timestamps of all change
	// cycles (width b).
	TP bitvec.Vector
	// K is the exact number of changes in the trace-cycle.
	K int
}

// Equal reports whether two log entries match.
func (e LogEntry) Equal(o LogEntry) bool { return e.K == o.K && e.TP.Equal(o.TP) }

func (e LogEntry) String() string {
	return fmt.Sprintf("(TP=%s, k=%d)", e.TP.String(), e.K)
}

// Log implements the logging procedure α̃: it abstracts a signal to its
// log entry under the given encoding. The signal length must equal the
// encoding's m.
func Log(enc *encoding.Encoding, s Signal) LogEntry {
	if s.M() != enc.M() {
		panic(fmt.Sprintf("core: signal length %d != encoding m %d", s.M(), enc.M()))
	}
	tp := bitvec.New(enc.B())
	for _, i := range s.Changes() {
		tp.XorInPlace(enc.Timestamp(i))
	}
	return LogEntry{TP: tp, K: s.K()}
}

// KBits returns the number of bits needed to log the change counter of
// an m-cycle trace-cycle: ⌈log2(m+1)⌉, since k ranges over 0..m. (The
// paper rounds this to log2(m); for its m = 1000 both give 10 bits.)
func KBits(m int) int { return bits.Len(uint(m)) }

// BitsPerTraceCycle returns the constant number of bits logged per
// trace-cycle: b for the timeprint plus KBits(m) for the counter.
func BitsPerTraceCycle(b, m int) int { return b + KBits(m) }

// LogRate returns the logging bit-rate in bits/second for a signal
// clocked at clockHz: (b + ⌈log2(m+1)⌉) / m · clockHz. This is the
// paper's Section 5.1.1 rate R.
func LogRate(b, m int, clockHz float64) float64 {
	return float64(BitsPerTraceCycle(b, m)) / float64(m) * clockHz
}

// Abstract is the lifted abstraction α: it maps a set of signals to the
// set of their log entries (duplicates collapse).
func Abstract(enc *encoding.Encoding, signals []Signal) []LogEntry {
	seen := map[string]bool{}
	var out []LogEntry
	for _, s := range signals {
		e := Log(enc, s)
		key := fmt.Sprintf("%s|%d", e.TP.Key(), e.K)
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	return out
}

// Concretize is the exhaustive concretization γ̃: all signals whose
// abstraction equals the entry. It enumerates all 2^m signals and is
// intended for validating the Galois insertion on small m (it panics
// for m > 24). Production reconstruction goes through the reconstruct
// package instead.
func Concretize(enc *encoding.Encoding, e LogEntry) []Signal {
	m := enc.M()
	if m > 24 {
		panic(fmt.Sprintf("core: exhaustive concretization over 2^%d signals refused", m))
	}
	ts := enc.Timestamps()
	var out []Signal
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		if bits.OnesCount64(mask) != e.K {
			continue
		}
		tp := bitvec.New(enc.B())
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				tp.XorInPlace(ts[i])
			}
		}
		if tp.Equal(e.TP) {
			out = append(out, SignalFromVector(bitvec.FromUint(mask, m)))
		}
	}
	return out
}
