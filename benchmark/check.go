package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/properties"
	"repro/internal/service"
)

// checker verifies daemon answers against the client's own copy of the
// encoding and the signals the benchmark planted. It never trusts the
// daemon's view: every candidate is re-abstracted with core.Log.
type checker struct {
	enc *encoding.Encoding
}

// entry checks one reconstructed trace-cycle. prop is the request's
// property (nil for none) and limit its candidate cap.
//
//   - the result echoes the request's (TP, k);
//   - every candidate re-abstracts to (TP, k) and satisfies prop;
//   - k <= 2 without a property returns exactly the planted signal
//     (LI-4 makes it the only one);
//   - an exhausted answer contains the planted signal;
//   - a property query returns at least one witness.
func (c checker) entry(want planted, got service.StreamEntryResult, prop properties.Property, limit int) error {
	if got.TP != want.entry.TP.String() || got.K != want.entry.K {
		return fmt.Errorf("result is for (tp=%s, k=%d), asked (tp=%s, k=%d)", got.TP, got.K, want.entry.TP, want.entry.K)
	}
	if got.Count != len(got.Changes) || got.Count != len(got.Candidates) {
		return fmt.Errorf("count %d but %d change lists and %d candidates", got.Count, len(got.Changes), len(got.Candidates))
	}
	if got.Count > limit {
		return fmt.Errorf("%d candidates exceed limit %d", got.Count, limit)
	}
	sawPlanted := false
	for i, changes := range got.Changes {
		if !validChanges(changes) {
			return fmt.Errorf("candidate %d: change cycles %v are not strictly increasing in [0,%d)", i, changes, geomM)
		}
		sig := core.SignalFromChanges(geomM, changes...)
		if sig.String() != got.Candidates[i] {
			return fmt.Errorf("candidate %d: change-map %q disagrees with changes %v", i, got.Candidates[i], changes)
		}
		if e := core.Log(c.enc, sig); !e.Equal(want.entry) {
			return fmt.Errorf("candidate %v re-abstracts to %v, not %v", changes, e, want.entry)
		}
		if prop != nil && !prop.Holds(sig) {
			return fmt.Errorf("candidate %v violates %s", changes, prop)
		}
		sawPlanted = sawPlanted || slices.Equal(changes, want.changes)
	}
	switch {
	case prop == nil && want.entry.K <= 2 && (got.Count != 1 || !sawPlanted || !got.Exhausted):
		return fmt.Errorf("k=%d must reconstruct uniquely to %v, got %v (exhausted %t)", want.entry.K, want.changes, got.Changes, got.Exhausted)
	case got.Exhausted && !sawPlanted:
		return fmt.Errorf("exhausted answer %v misses the planted signal %v", got.Changes, want.changes)
	case prop != nil && got.Count == 0:
		return fmt.Errorf("no witness for a planted %s burst", prop)
	}
	return nil
}

func validChanges(changes []int) bool {
	for i, c := range changes {
		if c < 0 || c >= geomM || (i > 0 && c <= changes[i-1]) {
			return false
		}
	}
	return true
}

// frame checks the results of one reconstructed frame: one result per
// entry, with trace-cycles numbered from base.
func (c checker) frame(want frame, got []service.StreamEntryResult, base int) error {
	if len(got) != len(want.cycles) {
		return fmt.Errorf("%d results for a %d-entry frame", len(got), len(want.cycles))
	}
	for i, r := range got {
		if r.TraceCycle != base+i {
			return fmt.Errorf("entry %d reported trace-cycle %d, want %d", i, r.TraceCycle, base+i)
		}
		if err := c.entry(want.cycles[i], r, nil, defaultLimit); err != nil {
			return fmt.Errorf("trace-cycle %d: %w", base+i, err)
		}
	}
	return nil
}
