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
// baseline of the "SAT vs algebraic" ablation. It never encodes
// temporal properties: the reconstruct package's decode oracle
// filters the candidates ForEach emits with each property's Holds,
// so pruning saves no decode work (that is the SAT encoding's
// advantage), only the memory of the candidates that fail.
package decode

import (
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

	// stamps holds every timestamp's words, n per timestamp. Probes XOR
	// them into stack buffers and look the result up in the word tables
	// below, which do not allocate.
	stamps []uint64
	n      int

	// single maps a timestamp's words to its clock-cycle; with duplicate
	// timestamps the newest entry, the last clock-cycle, is the one read.
	single wordTable
	// pairs maps the words of TS(i)^TS(j) to every (i, j) pair producing
	// them, stored as i*m+j. LI-4 guarantees at most one pair per key;
	// weaker encodings may have several, all of which are tracked. It is
	// built by the first k >= 3 query, under pairsOnce.
	pairsOnce sync.Once
	pairs     wordTable
}

// MaxPairM is the largest m whose pair values i*m+j fit an int32, so
// the largest m at which the decoder takes k >= 3. A pair index for a
// larger m would hold over 10^9 entries.
const MaxPairM = 46340

// check validates an entry's shape against the decoder's encoding,
// wrapping the shared core sentinels for typed classification.
func (d *Decoder) check(entry core.LogEntry) error {
	if entry.TP.Width() != d.enc.B() {
		return fmt.Errorf("decode: timeprint width %d, want %d: %w", entry.TP.Width(), d.enc.B(), core.ErrWidth)
	}
	if entry.K < 0 || entry.K > MaxK {
		return fmt.Errorf("decode: k=%d outside [0,%d] (use the SAT reconstructor): %w", entry.K, MaxK, core.ErrKRange)
	}
	if entry.K >= 3 && d.enc.M() > MaxPairM {
		return fmt.Errorf("decode: k=%d needs the pair index, which covers m <= %d, not %d: %w", entry.K, MaxPairM, d.enc.M(), core.ErrKRange)
	}
	return nil
}

// New builds a decoder for the encoding. The single-timestamp index is
// built eagerly (O(m)); the pairwise index lazily on the first k >= 3
// query (O(m²) time and space).
func New(enc *encoding.Encoding) *Decoder {
	m := enc.M()
	d := &Decoder{enc: enc, n: (enc.B() + 63) / 64}
	d.stamps = make([]uint64, 0, m*d.n)
	for i := 0; i < m; i++ {
		ts := enc.Timestamp(i)
		for w := 0; w < d.n; w++ {
			d.stamps = append(d.stamps, ts.Word(w))
		}
	}
	d.single = newWordTable(d.n, m)
	for i := 0; i < m; i++ {
		d.single.add(d.stamp(i), int32(i))
	}
	return d
}

// stamp returns the words of TS(i).
func (d *Decoder) stamp(i int) []uint64 { return d.stamps[i*d.n : (i+1)*d.n] }

func (d *Decoder) buildPairs() {
	d.pairsOnce.Do(func() {
		m := d.enc.M()
		d.pairs = newWordTable(d.n, m*(m-1)/2)
		key := make([]uint64, d.n)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				xorWords(key, d.stamp(i), d.stamp(j))
				d.pairs.add(key, int32(i*m+j))
			}
		}
	})
}

// xorWords sets dst to a ^ b; all three have the same length.
func xorWords(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// wordTable is an open-addressed hash multimap from n-word keys to
// int32 values, probed linearly. Its backing arrays hold no pointers, so
// the garbage collector never scans them, and a lookup allocates
// nothing. Slot s
// keeps a distinct key in keys[s*n:(s+1)*n] and the newest entry stored
// under it in head[s], -1 if the slot is empty. Entry e holds vals[e]
// and links to the next older entry under the same key through next[e],
// -1 at the end. There are no deletions, so a probe stops at the first
// empty slot. Walk a key's values with
//
//	for e := t.first(key); e >= 0; e = t.next[e] { ... t.vals[e] ... }
type wordTable struct {
	n    int
	mask int
	keys []uint64
	head []int32
	next []int32
	vals []int32
}

// newWordTable sizes a table for count entries, so that at most half of
// its slots are ever full.
func newWordTable(n, count int) wordTable {
	slots := 1
	for slots < 2*count {
		slots <<= 1
	}
	t := wordTable{
		n: n, mask: slots - 1,
		keys: make([]uint64, slots*n), head: make([]int32, slots),
		next: make([]int32, 0, count), vals: make([]int32, 0, count),
	}
	for s := range t.head {
		t.head[s] = -1
	}
	return t
}

// slot returns the slot that holds key, or the empty slot where it
// belongs.
func (t *wordTable) slot(key []uint64) int {
	h := uint64(0)
	for _, w := range key {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	s := int(h) & t.mask
	for t.head[s] >= 0 && !slices.Equal(t.keys[s*t.n:(s+1)*t.n], key) {
		s = (s + 1) & t.mask
	}
	return s
}

// add stores v under key, ahead of the values already there.
func (t *wordTable) add(key []uint64, v int32) {
	s := t.slot(key)
	copy(t.keys[s*t.n:], key)
	t.next = append(t.next, t.head[s])
	t.vals = append(t.vals, v)
	t.head[s] = int32(len(t.vals) - 1)
}

// first returns the newest entry stored under key, or -1.
func (t *wordTable) first(key []uint64) int32 { return t.head[t.slot(key)] }

// Decode returns every signal with exactly entry.K changes whose
// timestamps XOR to entry.TP, sorted by Signal.Compare. It returns an
// error for k > MaxK.
func (d *Decoder) Decode(entry core.LogEntry) ([]core.Signal, error) {
	m := d.enc.M()
	var out []core.Signal
	err := d.ForEach(entry, func(cs []int) {
		out = append(out, core.SignalFromChanges(m, cs...))
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, core.Signal.Compare)
	return out, nil
}

// ForEach calls fn with the change set of every signal Decode would
// return, each exactly once, as strictly increasing indices, in no
// promised order. The slice is reused across calls; fn must not
// retain it. It returns an error, and calls fn never, for an entry of
// the wrong width or with k > MaxK.
func (d *Decoder) ForEach(entry core.LogEntry, fn func(changes []int)) error {
	if err := d.check(entry); err != nil {
		return err
	}
	d.forEachSet(entry, fn)
	return nil
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
	var tpBuf, restBuf, rest2Buf [8]uint64
	tp := tpBuf[:0]
	for w := 0; w < d.n; w++ {
		tp = append(tp, entry.TP.Word(w))
	}
	rest := append(restBuf[:0], tp...)
	rest2 := append(rest2Buf[:0], tp...)
	m := d.enc.M()
	switch entry.K {
	case 0:
		if entry.TP.IsZero() {
			fn(buf[:0])
		}
	case 1:
		if e := d.single.first(tp); e >= 0 {
			buf[0] = int(d.single.vals[e])
			fn(buf[:1])
		}
	case 2:
		for i := 0; i < m; i++ {
			xorWords(rest, tp, d.stamp(i))
			if e := d.single.first(rest); e >= 0 && int(d.single.vals[e]) > i {
				buf[0], buf[1] = i, int(d.single.vals[e])
				fn(buf[:2])
			}
		}
	case 3:
		d.buildPairs()
		for i := 0; i < m; i++ {
			xorWords(rest, tp, d.stamp(i))
			for e := d.pairs.first(rest); e >= 0; e = d.pairs.next[e] {
				p := int(d.pairs.vals[e])
				if p0, p1 := p/m, p%m; p0 > i { // canonical order i < p0 < p1
					buf[0], buf[1], buf[2] = i, p0, p1
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
				for e := d.pairs.first(rest2); e >= 0; e = d.pairs.next[e] {
					// Canonical: i < j < p0 < p1 avoids duplicates.
					p := int(d.pairs.vals[e])
					if p0, p1 := p/m, p%m; p0 > j {
						buf[0], buf[1], buf[2], buf[3] = i, j, p0, p1
						fn(buf[:4])
					}
				}
			}
		}
	}
}

// Count returns the number of weight-k solutions without materializing
// the signals: candidate sets are counted as ForEach emits them —
// no per-candidate bit vector or final sort as in Decode.
func (d *Decoder) Count(entry core.LogEntry) (int, error) {
	n := 0
	err := d.ForEach(entry, func([]int) { n++ })
	return n, err
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
