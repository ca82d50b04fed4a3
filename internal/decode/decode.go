// Package decode solves the signal reconstruction problem by
// information-set / meet-in-the-middle syndrome decoding instead of
// SAT. Section 4.2 observes that SR "in terms of linear algebra" is
// the syndrome decoding problem of coding theory (Berlekamp–McEliece–
// van Tilborg): find all weight-k x with A·x = TP. For the small
// change counts where SR is hardest for CDCL search (k <= 4), the
// algebraic structure admits a much faster exact algorithm:
//
//   - k = 0: TP must be zero.
//   - k = 1: TP must equal some timestamp.
//   - k = 2: hash all timestamps; for each i, TP ^ TS(i) must be a
//     later timestamp — O(m) with a hash table.
//   - k = 3: for each i, solve the k=2 instance on TP ^ TS(i) — O(m²).
//   - k = 4: meet in the middle — hash all pairwise XORs (O(m²)
//     space), then match TP ^ (pair) against the table.
//
// The decoder is exact, deterministic, and used as a second
// independent oracle against the SAT reconstructor, and as the
// baseline of the "SAT vs algebraic" ablation. It intentionally does
// NOT support temporal-property pruning — that is the SAT encoding's
// advantage and exactly the trade-off the ablation exposes.
package decode

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/encoding"
)

// MaxK is the largest change count the algebraic decoder handles.
const MaxK = 4

// Decoder holds the precomputed index structures for one encoding. It
// is safe for concurrent use and takes no lock: the indexes are
// read-only once built, and the pair index is built exactly once.
type Decoder struct {
	enc *encoding.Encoding

	// stamps holds every timestamp's word bytes (AppendBytes), n bytes
	// each. Probes XOR them into stack buffers and look the result up
	// with m[string(buf)], which does not allocate.
	stamps []byte
	n      int

	// single maps a timestamp's word bytes to its clock-cycle.
	single map[string]int
	// pairs maps the word bytes of TS(i)^TS(j) to the (i, j) pairs
	// producing it. LI-4 guarantees at most one pair per key; weaker
	// encodings may have several, all of which are tracked. It is built
	// by the first k >= 3 query, under pairsOnce.
	pairsOnce sync.Once
	pairs     map[string][][2]int
}

// check validates an entry's shape against the decoder's encoding,
// wrapping the shared core sentinels for typed classification.
func (d *Decoder) check(entry core.LogEntry) error {
	if entry.TP.Width() != d.enc.B() {
		return fmt.Errorf("decode: timeprint width %d, want %d: %w", entry.TP.Width(), d.enc.B(), core.ErrWidth)
	}
	if entry.K < 0 || entry.K > MaxK {
		return fmt.Errorf("decode: k=%d outside [0,%d] (use the SAT reconstructor): %w", entry.K, MaxK, core.ErrKRange)
	}
	return nil
}

// New builds a decoder for the encoding. The single-timestamp index is
// built eagerly (O(m)); the pairwise index lazily on the first k >= 3
// query (O(m²) time and space).
func New(enc *encoding.Encoding) *Decoder {
	m := enc.M()
	d := &Decoder{enc: enc, single: make(map[string]int, m)}
	for i := 0; i < m; i++ {
		d.stamps = enc.Timestamp(i).AppendBytes(d.stamps)
	}
	d.n = len(d.stamps) / max(m, 1)
	for i := 0; i < m; i++ {
		d.single[string(d.stamp(i))] = i
	}
	return d
}

// stamp returns the word bytes of TS(i).
func (d *Decoder) stamp(i int) []byte { return d.stamps[i*d.n : (i+1)*d.n] }

func (d *Decoder) buildPairs() {
	d.pairsOnce.Do(func() {
		m := d.enc.M()
		d.pairs = make(map[string][][2]int, m*(m-1)/2)
		key := make([]byte, d.n)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				xorWords(key, d.stamp(i), d.stamp(j))
				d.pairs[string(key)] = append(d.pairs[string(key)], [2]int{i, j})
			}
		}
	})
}

// xorWords sets dst to a ^ b, eight bytes at a time; all three hold
// the same whole number of words.
func xorWords(dst, a, b []byte) {
	for i := 0; i < len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
}

// Decode returns every signal with exactly entry.K changes whose
// timestamps XOR to entry.TP, sorted by their Vector().Key(). It
// returns an error for k > MaxK.
func (d *Decoder) Decode(entry core.LogEntry) ([]core.Signal, error) {
	if err := d.check(entry); err != nil {
		return nil, err
	}
	m := d.enc.M()
	var out []core.Signal
	d.forEachSet(entry, func(cs []int) {
		out = append(out, core.SignalFromChanges(m, cs...))
	})
	slices.SortFunc(out, core.Signal.Compare)
	return out, nil
}

// forEachSet enumerates candidate change sets for the entry, invoking
// fn with each set in canonical increasing index order. The slice is
// reused across calls; fn must not retain it. Every emitted set has
// exactly entry.K strictly increasing indices, so each candidate signal
// appears exactly once (the canonical-order guards make decompositions
// unique even under weak encodings where pairs has multi-pair
// collisions) and callers need no deduplication.
func (d *Decoder) forEachSet(entry core.LogEntry, fn func(cs []int)) {
	var buf [MaxK]int
	// Probe keys live in stack buffers, which fit any timestamp up to
	// 512 bits wide; wider ones grow onto the heap once per call.
	var tpBuf, restBuf, rest2Buf [64]byte
	tp := entry.TP.AppendBytes(tpBuf[:0])
	rest := append(restBuf[:0], tp...)
	rest2 := append(rest2Buf[:0], tp...)
	m := d.enc.M()
	switch entry.K {
	case 0:
		if entry.TP.IsZero() {
			fn(buf[:0])
		}
	case 1:
		if i, ok := d.single[string(tp)]; ok {
			buf[0] = i
			fn(buf[:1])
		}
	case 2:
		for i := 0; i < m; i++ {
			xorWords(rest, tp, d.stamp(i))
			if j, ok := d.single[string(rest)]; ok && j > i {
				buf[0], buf[1] = i, j
				fn(buf[:2])
			}
		}
	case 3:
		d.buildPairs()
		for i := 0; i < m; i++ {
			xorWords(rest, tp, d.stamp(i))
			for _, p := range d.pairs[string(rest)] {
				if p[0] > i { // canonical order i < p0 < p1
					buf[0], buf[1], buf[2] = i, p[0], p[1]
					fn(buf[:3])
				}
			}
		}
	case 4:
		d.buildPairs()
		for i := 0; i < m; i++ {
			xorWords(rest, tp, d.stamp(i))
			for j := i + 1; j < m; j++ {
				xorWords(rest2, rest, d.stamp(j))
				for _, p := range d.pairs[string(rest2)] {
					// Canonical: i < j < p0 < p1 avoids duplicates.
					if p[0] > j {
						buf[0], buf[1], buf[2], buf[3] = i, j, p[0], p[1]
						fn(buf[:4])
					}
				}
			}
		}
	}
}

// Count returns the number of weight-k solutions without materializing
// the signals: candidate sets are counted as forEachSet emits them —
// no per-candidate bit vector or final sort as in Decode.
func (d *Decoder) Count(entry core.LogEntry) (int, error) {
	if err := d.check(entry); err != nil {
		return 0, err
	}
	n := 0
	d.forEachSet(entry, func([]int) { n++ })
	return n, nil
}

// Unique reports whether the entry has exactly one reconstruction and
// returns it.
func (d *Decoder) Unique(entry core.LogEntry) (core.Signal, bool, error) {
	sigs, err := d.Decode(entry)
	if err != nil {
		return core.Signal{}, false, err
	}
	if len(sigs) != 1 {
		return core.Signal{}, false, nil
	}
	return sigs[0], true, nil
}

// AmbiguityProfile counts, over every weight-k signal sampled by the
// caller-provided list, how many reconstruct uniquely vs ambiguously —
// the empirical view of Section 4.3's encoding trade-off.
type AmbiguityProfile struct {
	Total     int
	Unique    int
	MaxCands  int
	MeanCands float64
}

// Profile decodes each signal's log entry and aggregates ambiguity.
func (d *Decoder) Profile(signals []core.Signal) (AmbiguityProfile, error) {
	var p AmbiguityProfile
	sum := 0
	for _, s := range signals {
		entry := core.Log(d.enc, s)
		n, err := d.Count(entry)
		if err != nil {
			return p, err
		}
		p.Total++
		sum += n
		if n == 1 {
			p.Unique++
		}
		if n > p.MaxCands {
			p.MaxCands = n
		}
	}
	if p.Total > 0 {
		p.MeanCands = float64(sum) / float64(p.Total)
	}
	return p, nil
}
