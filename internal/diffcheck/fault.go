package diffcheck

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encoding"
	"repro/internal/reconstruct"
	"repro/internal/trace"
)

// FaultReport summarizes a fault-injection run. A fault fails closed
// when it is either rejected with a typed error at ingestion
// (RejectedTyped) or — for structurally valid corruption that no single
// entry can reveal — localized by the store comparison to the exact
// corrupted trace-cycle (Localized). Anything else (a panic, an
// untyped rejection, a silently wrong signal, a mislocalization) is a
// Failure.
type FaultReport struct {
	Injected      int
	RejectedTyped int
	Localized     int
	Failures      []string
}

// Ok reports whether every injected fault failed closed.
func (r *FaultReport) Ok() bool { return len(r.Failures) == 0 }

// Summary renders the fault-injection outcome.
func (r *FaultReport) Summary() string {
	s := fmt.Sprintf("faultcheck: %d faults injected, %d rejected with typed errors, %d localized by compare, %d failures\n",
		r.Injected, r.RejectedTyped, r.Localized, len(r.Failures))
	for _, f := range r.Failures {
		s += "  FAIL: " + f + "\n"
	}
	return s
}

func (r *FaultReport) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// geometry of the reference trace the faults are injected into.
const (
	faultM      = 32
	faultB      = 11
	faultCycles = 24 // trace-cycles in the reference log
)

// InjectFaults builds a reference timeprint log from a randomized wire
// trace and injects every fault class a field-deployed logger could
// produce — TP bit flips, k off-by-one, dropped / duplicated /
// reordered entries, width mismatches, truncated and bit-rotted
// serializations — asserting each fails closed. The run is
// deterministic in the seed.
func InjectFaults(seed int64) (*FaultReport, error) {
	rep := &FaultReport{}
	rng := rand.New(rand.NewSource(seed))

	enc, err := encoding.Incremental(faultM, faultB, 4)
	if err != nil {
		return nil, err
	}
	ref, truths, err := referenceStore(enc, rng)
	if err != nil {
		return nil, err
	}

	injectShapeFaults(rep, enc, ref)
	injectEntryCorruption(rep, enc, ref, truths, rng)
	injectSequenceFaults(rep, ref)
	injectWireFaults(rep, ref, rng)
	injectCompareMisuse(rep, ref)
	return rep, nil
}

// referenceStore logs a randomized busy wire (dense, distinct entries)
// and returns the store plus the per-trace-cycle ground truth.
func referenceStore(enc *encoding.Encoding, rng *rand.Rand) (*trace.Store, []core.Signal, error) {
	st := trace.NewStore("ref", 50e6, enc.M(), enc.B())
	logger := core.NewLogger(enc)
	var truths []core.Signal
	for tc := 0; tc < faultCycles; tc++ {
		k := 2 + rng.Intn(5)
		sig := core.SignalFromChanges(enc.M(), rng.Perm(enc.M())[:k]...)
		truths = append(truths, sig)
		for i := 0; i < enc.M(); i++ {
			logger.TickChange(sig.Changed(i))
		}
	}
	if err := st.Append(logger.Entries()...); err != nil {
		return nil, nil, err
	}
	return st, truths, nil
}

// cloneStore copies a store with the given entries substituted.
func cloneStore(ref *trace.Store, entries []core.LogEntry) (*trace.Store, error) {
	st := trace.NewStore(ref.SignalName, ref.ClockHz, ref.M, ref.B)
	st.Epoch = ref.Epoch
	if err := st.Append(entries...); err != nil {
		return nil, err
	}
	return st, nil
}

// guard runs fn, converting a panic into a harness failure: every layer
// must fail closed, never crash.
func guard(rep *FaultReport, what string, fn func()) {
	defer func() {
		if p := recover(); p != nil {
			rep.failf("%s panicked: %v", what, p)
		}
	}()
	fn()
}

// expectTyped asserts err wraps the sentinel; on success the fault
// counts as rejected-typed.
func expectTyped(rep *FaultReport, what string, err, sentinel error) {
	switch {
	case err == nil:
		rep.failf("%s: corrupted input accepted", what)
	case !errors.Is(err, sentinel):
		rep.failf("%s: rejection not typed (%v, want %v)", what, err, sentinel)
	default:
		rep.RejectedTyped++
	}
}

// injectShapeFaults feeds structurally invalid entries — wrong
// timeprint width, out-of-range change counts — to every ingestion
// layer: the store, both reconstruction oracles, brute force, and the
// wire serializer.
func injectShapeFaults(rep *FaultReport, enc *encoding.Encoding, ref *trace.Store) {
	wide := core.LogEntry{TP: bitvec.New(ref.B + 1), K: 1}
	narrow := core.LogEntry{TP: bitvec.New(ref.B - 1), K: 1}
	kBig := core.LogEntry{TP: bitvec.New(ref.B), K: ref.M + 1}
	kNeg := core.LogEntry{TP: bitvec.New(ref.B), K: -1}

	for _, tc := range []struct {
		name     string
		entry    core.LogEntry
		sentinel error
	}{
		{"width+1", wide, core.ErrWidth},
		{"width-1", narrow, core.ErrWidth},
		{"k>m", kBig, core.ErrKRange},
		{"k<0", kNeg, core.ErrKRange},
	} {
		tc := tc
		rep.Injected++
		guard(rep, "store.Append "+tc.name, func() {
			expectTyped(rep, "store.Append "+tc.name, ref.Append(tc.entry), tc.sentinel)
		})
		rep.Injected++
		guard(rep, "reconstruct.New "+tc.name, func() {
			_, err := reconstruct.New(enc, tc.entry, nil, reconstruct.Options{})
			expectTyped(rep, "reconstruct.New "+tc.name, err, tc.sentinel)
		})
		rep.Injected++
		guard(rep, "reconstruct.BruteForce "+tc.name, func() {
			_, err := reconstruct.BruteForce(enc, tc.entry, 0)
			expectTyped(rep, "reconstruct.BruteForce "+tc.name, err, tc.sentinel)
		})
		rep.Injected++
		guard(rep, "core.WriteLog "+tc.name, func() {
			err := core.WriteLog(&bytes.Buffer{}, ref.M, ref.B, []core.LogEntry{tc.entry})
			expectTyped(rep, "core.WriteLog "+tc.name, err, tc.sentinel)
		})
	}
	// The algebraic decoder additionally rejects k beyond its algorithm
	// family, still typed as a range error.
	for _, tc := range []struct {
		name     string
		entry    core.LogEntry
		sentinel error
	}{
		{"width+1", wide, core.ErrWidth},
		{"k>MaxK", core.LogEntry{TP: bitvec.New(ref.B), K: decode.MaxK + 1}, core.ErrKRange},
		{"k<0", kNeg, core.ErrKRange},
	} {
		tc := tc
		rep.Injected++
		guard(rep, "decode "+tc.name, func() {
			dec := decode.New(enc)
			_, err := dec.Decode(tc.entry)
			expectTyped(rep, "decode.Decode "+tc.name, err, tc.sentinel)
			if _, err := dec.Count(tc.entry); !errors.Is(err, tc.sentinel) {
				rep.failf("decode.Count %s: rejection not typed (%v)", tc.name, err)
			}
		})
	}
}

// injectEntryCorruption flips timeprint bits and nudges change counts —
// corruption that yields a structurally valid entry, which no single
// layer can reject. Failing closed here means: reconstruction never
// panics and never returns a signal inconsistent with the (corrupted)
// entry it was given, and the store comparison pinpoints the corrupted
// trace-cycle exactly.
func injectEntryCorruption(rep *FaultReport, enc *encoding.Encoding, ref *trace.Store, truths []core.Signal, rng *rand.Rand) {
	for trial := 0; trial < 16; trial++ {
		tc := rng.Intn(ref.Len())
		entries := ref.Entries()
		orig := entries[tc]
		corrupted := core.LogEntry{TP: orig.TP.Clone(), K: orig.K}
		var what string
		if trial%2 == 0 {
			bit := rng.Intn(ref.B)
			corrupted.TP.Flip(bit)
			what = fmt.Sprintf("TP bit-flip tc=%d bit=%d", tc, bit)
		} else {
			delta := 1 - 2*rng.Intn(2) // ±1
			if corrupted.K+delta < 0 || corrupted.K+delta > ref.M {
				delta = -delta
			}
			corrupted.K += delta
			what = fmt.Sprintf("k off-by-one tc=%d (%+d)", tc, delta)
		}
		entries[tc] = corrupted

		rep.Injected++
		guard(rep, what, func() {
			bad, err := cloneStore(ref, entries)
			if err != nil {
				rep.failf("%s: corrupted store rebuild: %v", what, err)
				return
			}
			// Localization: the diff must flag exactly the corrupted
			// trace-cycle, classified by what changed.
			ms, err := trace.Compare(ref, bad)
			if err != nil {
				rep.failf("%s: compare errored: %v", what, err)
				return
			}
			if len(ms) != 1 || ms[0].TraceCycle != tc {
				rep.failf("%s: compare flagged %+v, want exactly tc %d", what, ms, tc)
				return
			}
			wantK := corrupted.K != orig.K
			if ms[0].KDiffers != wantK || ms[0].TPDiffers == wantK {
				rep.failf("%s: misclassified mismatch %+v", what, ms[0])
				return
			}
			rep.Localized++

			// Reconstruction of the corrupted entry must stay internally
			// consistent: every candidate re-logs to the corrupted entry,
			// and the true signal is never among them (its abstraction is
			// the original entry, which differs).
			r, err := reconstruct.New(enc, corrupted, nil, reconstruct.Options{})
			if err != nil {
				rep.failf("%s: reconstruct.New rejected a well-formed entry: %v", what, err)
				return
			}
			sigs, exhausted, err := r.EnumerateStrict(0)
			if err != nil {
				rep.failf("%s: enumeration failed: %v", what, err)
				return
			}
			if !exhausted {
				rep.failf("%s: enumeration not exhausted", what)
				return
			}
			for _, s := range sigs {
				if !core.Log(enc, s).Equal(corrupted) {
					rep.failf("%s: candidate %v inconsistent with corrupted entry", what, s.Changes())
				}
				if s.Equal(truths[tc]) {
					rep.failf("%s: corrupted entry silently reconstructed the original signal", what)
				}
			}
			if corrupted.K <= decode.MaxK {
				alg, err := decode.New(enc).Decode(corrupted)
				if err != nil {
					rep.failf("%s: decode rejected a well-formed entry: %v", what, err)
					return
				}
				if len(alg) != len(sigs) {
					rep.failf("%s: decode found %d candidates, sat %d", what, len(alg), len(sigs))
				}
			}
		})
	}
}

// injectSequenceFaults drops, duplicates, and reorders whole entries —
// the dropped-trace-cycle and replay artifacts of a flaky logging link.
// The store accepts such logs (each entry is valid); the comparison
// against the reference must localize the damage at the exact
// trace-cycle where the sequences first disagree.
func injectSequenceFaults(rep *FaultReport, ref *trace.Store) {
	entries := ref.Entries()
	// Pick positions whose neighbors differ so the expected first
	// mismatch is exact (random dense entries collide with negligible
	// probability, but pin it down deterministically).
	pos := -1
	for i := 0; i+1 < len(entries); i++ {
		if !entries[i].Equal(entries[i+1]) {
			pos = i
			break
		}
	}
	if pos < 0 {
		rep.failf("sequence faults: reference trace degenerate (all entries equal)")
		return
	}

	// Dropped entry: suffix shifts left; first disagreement at pos.
	rep.Injected++
	guard(rep, "dropped entry", func() {
		dropped := append(append([]core.LogEntry{}, entries[:pos]...), entries[pos+1:]...)
		bad, err := cloneStore(ref, dropped)
		if err != nil {
			rep.failf("dropped entry: rebuild: %v", err)
			return
		}
		ms, err := trace.Compare(ref, bad)
		if err != nil {
			rep.failf("dropped entry: compare: %v", err)
			return
		}
		if first := trace.FirstMismatch(ms); first != pos {
			rep.failf("dropped entry at %d: first mismatch %d", pos, first)
			return
		}
		rep.Localized++
	})

	// Duplicated entry: suffix shifts right; sequences agree through
	// pos (the duplicate equals the original) and disagree at pos+1.
	rep.Injected++
	guard(rep, "duplicated entry", func() {
		dup := append([]core.LogEntry{}, entries[:pos+1]...)
		dup = append(dup, entries[pos])
		dup = append(dup, entries[pos+1:]...)
		bad, err := cloneStore(ref, dup)
		if err != nil {
			rep.failf("duplicated entry: rebuild: %v", err)
			return
		}
		ms, err := trace.Compare(ref, bad)
		if err != nil {
			rep.failf("duplicated entry: compare: %v", err)
			return
		}
		if first := trace.FirstMismatch(ms); first != pos+1 {
			rep.failf("duplicated entry at %d: first mismatch %d", pos, first)
			return
		}
		rep.Localized++
	})

	// Reordered entries: swap two distinct entries; both positions must
	// be flagged and nothing else.
	rep.Injected++
	guard(rep, "reordered entries", func() {
		i, j := pos, pos+1
		// Stretch the swap distance when possible for a harder case.
		for jj := len(entries) - 1; jj > i+1; jj-- {
			if !entries[jj].Equal(entries[i]) {
				j = jj
				break
			}
		}
		swapped := append([]core.LogEntry{}, entries...)
		swapped[i], swapped[j] = swapped[j], swapped[i]
		bad, err := cloneStore(ref, swapped)
		if err != nil {
			rep.failf("reordered entries: rebuild: %v", err)
			return
		}
		ms, err := trace.Compare(ref, bad)
		if err != nil {
			rep.failf("reordered entries: compare: %v", err)
			return
		}
		if len(ms) != 2 || ms[0].TraceCycle != i || ms[1].TraceCycle != j {
			rep.failf("reordered entries %d<->%d: flagged %+v", i, j, ms)
			return
		}
		rep.Localized++
	})
}

// injectWireFaults corrupts the serialized byte stream: truncation at
// every prefix length, header rot, and random payload bit flips that
// produce an undecodable change count. ReadLog must reject each with a
// typed corruption error and never panic or over-allocate.
func injectWireFaults(rep *FaultReport, ref *trace.Store, rng *rand.Rand) {
	var buf bytes.Buffer
	if err := core.WriteLog(&buf, ref.M, ref.B, ref.Entries()); err != nil {
		rep.failf("wire faults: serialize reference: %v", err)
		return
	}
	raw := buf.Bytes()

	// Truncations: a sample of prefix lengths including every header
	// boundary.
	cuts := []int{0, 1, 3, 4, 7, 8, 11, 12, 15, 16}
	for i := 0; i < 6; i++ {
		cuts = append(cuts, 16+rng.Intn(len(raw)-17))
	}
	for _, cut := range cuts {
		rep.Injected++
		cut := cut
		guard(rep, fmt.Sprintf("truncated log at %d bytes", cut), func() {
			_, _, _, err := core.ReadLog(bytes.NewReader(raw[:cut]))
			expectTyped(rep, fmt.Sprintf("truncated log at %d bytes", cut), err, core.ErrCorrupt)
		})
	}

	// Header rot: break the magic.
	rep.Injected++
	guard(rep, "bad magic", func() {
		rot := append([]byte{}, raw...)
		rot[0] ^= 0xFF
		_, _, _, err := core.ReadLog(bytes.NewReader(rot))
		expectTyped(rep, "bad magic", err, core.ErrCorrupt)
	})

	// Implausible geometry: huge m in the header.
	rep.Injected++
	guard(rep, "implausible header", func() {
		rot := append([]byte{}, raw...)
		rot[7] = 0xFF // high byte of m
		_, _, _, err := core.ReadLog(bytes.NewReader(rot))
		expectTyped(rep, "implausible header", err, core.ErrCorrupt)
	})

	// Payload rot: force an entry to decode k > m by setting all bits
	// of one entry's k field. KBits(32)=6 encodes up to 63 > 32, so an
	// all-ones counter is undecodable.
	rep.Injected++
	guard(rep, "k field rot", func() {
		rot := append([]byte{}, raw...)
		kb := core.KBits(ref.M)
		// First entry's k field starts after the 16-byte header and b
		// payload bits.
		for bit := ref.B; bit < ref.B+kb; bit++ {
			rot[16+bit/8] |= 1 << (bit % 8)
		}
		_, _, _, err := core.ReadLog(bytes.NewReader(rot))
		expectTyped(rep, "k field rot", err, core.ErrCorrupt)
	})
}

// injectCompareMisuse diffs stores with mismatched trace parameters;
// every combination must be rejected with the typed incompatibility
// error rather than silently producing a misaligned comparison.
func injectCompareMisuse(rep *FaultReport, ref *trace.Store) {
	mutations := []struct {
		name string
		mut  func(s *trace.Store)
	}{
		{"different m", func(s *trace.Store) { s.M = ref.M * 2 }},
		{"different b", func(s *trace.Store) { s.B = ref.B + 1 }},
		{"different clock", func(s *trace.Store) { s.ClockHz = ref.ClockHz * 2 }},
		{"different epoch", func(s *trace.Store) { s.Epoch = ref.Epoch + 1.5 }},
	}
	for _, mu := range mutations {
		mu := mu
		rep.Injected++
		guard(rep, "compare "+mu.name, func() {
			other := trace.NewStore(ref.SignalName, ref.ClockHz, ref.M, ref.B)
			other.Epoch = ref.Epoch
			mu.mut(other)
			_, err := trace.Compare(ref, other)
			expectTyped(rep, "compare "+mu.name, err, trace.ErrIncompatible)
		})
	}
}
