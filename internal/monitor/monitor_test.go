package monitor

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/properties"
	"repro/internal/reconstruct"
	"repro/internal/rtl"
)

// exhaustiveAgainstProperty validates an FSM against its property's
// Holds over every signal of length m.
func exhaustiveAgainstProperty(t *testing.T, mk func() FSM, m int) {
	t.Helper()
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		s := core.SignalFromVector(bitvec.FromUint(mask, m))
		f := mk()
		got := CheckSignal(f, s)
		want := f.Property().Holds(s)
		if got != want {
			t.Fatalf("%s on %s: fsm %v, property %v", f, s, got, want)
		}
	}
}

func TestDkFSM(t *testing.T) {
	exhaustiveAgainstProperty(t, func() FSM { return NewDk(6, 2) }, 10)
	exhaustiveAgainstProperty(t, func() FSM { return NewDk(10, 0) }, 10)
}

func TestMinGapFSM(t *testing.T) {
	exhaustiveAgainstProperty(t, func() FSM { return NewMinGap(3) }, 10)
	exhaustiveAgainstProperty(t, func() FSM { return NewMinGap(1) }, 8)
}

func TestWindowFSM(t *testing.T) {
	exhaustiveAgainstProperty(t, func() FSM { return NewWindow(2, 7) }, 10)
	exhaustiveAgainstProperty(t, func() FSM { return NewWindow(0, 10) }, 10)
}

func TestPairedChangesFSM(t *testing.T) {
	exhaustiveAgainstProperty(t, func() FSM { return NewPairedChanges() }, 12)
}

func TestPeriodicFSM(t *testing.T) {
	exhaustiveAgainstProperty(t, func() FSM { return NewPeriodic(4, 1) }, 12)
	exhaustiveAgainstProperty(t, func() FSM { return NewPeriodic(3, 0) }, 10)
}

func TestResponseFSM(t *testing.T) {
	mk := func(u int) func() FSM {
		return func() FSM {
			f, err := NewResponse(u)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	exhaustiveAgainstProperty(t, mk(2), 10)
	exhaustiveAgainstProperty(t, mk(4), 10)
	if _, err := NewResponse(0); err == nil {
		t.Error("U=0 accepted")
	}
}

func TestMonitorSegmentsTraceCycles(t *testing.T) {
	mon := New(NewDk(4, 1), 8)
	// Trace-cycle 0: change at cycle 2 (satisfied); trace-cycle 1: no
	// early change (violated).
	pattern := []bool{false, false, true, false, false, false, false, false,
		false, false, false, false, false, true, false, false}
	var boundaries int
	for _, c := range pattern {
		if _, done := mon.Tick(c); done {
			boundaries++
		}
	}
	if boundaries != 2 {
		t.Fatalf("%d boundaries", boundaries)
	}
	vs := mon.Verdicts()
	if len(vs) != 2 || !vs[0].Satisfied || vs[1].Satisfied {
		t.Fatalf("verdicts %+v", vs)
	}
}

func TestFSMStateResetBetweenTraceCycles(t *testing.T) {
	// A violation in trace-cycle 0 must not leak into trace-cycle 1.
	mon := New(NewMinGap(4), 8)
	// tc0: changes at 1,2 (violated); tc1: changes at 0,6 (ok).
	pattern := []bool{false, true, true, false, false, false, false, false,
		true, false, false, false, false, false, true, false}
	for _, c := range pattern {
		mon.Tick(c)
	}
	vs := mon.Verdicts()
	if vs[0].Satisfied || !vs[1].Satisfied {
		t.Fatalf("verdicts %+v", vs)
	}
}

func TestConstraintsOnlyWhenSatisfied(t *testing.T) {
	mon := New(NewDk(4, 1), 8)
	pattern := []bool{false, false, true, false, false, false, false, false, // satisfied
		false, false, false, false, false, false, false, false} // violated
	for _, c := range pattern {
		mon.Tick(c)
	}
	if cs := mon.Constraints(0); len(cs) != 1 {
		t.Error("satisfied trace-cycle yields no constraint")
	}
	if cs := mon.Constraints(1); cs != nil {
		t.Error("violated trace-cycle yields a constraint")
	}
	if cs := mon.Constraints(7); cs != nil {
		t.Error("unknown trace-cycle yields a constraint")
	}
}

func TestMonitorVerdictPrunesReconstruction(t *testing.T) {
	// The paper's flow: the monitor verifies PairedChanges during the
	// run; the verdict is then encoded into the SAT query, shrinking
	// the candidate set.
	enc, err := encoding.Incremental(16, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	truth := core.SignalFromChanges(16, 3, 4, 9, 10)
	mon := New(NewPairedChanges(), 16)
	for i := 0; i < 16; i++ {
		mon.Tick(truth.Changed(i))
	}
	entry := core.Log(enc, truth)

	unpruned, err := reconstruct.New(enc, entry, nil, reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := unpruned.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}

	pruned, err := reconstruct.New(enc, entry, mon.Constraints(0), reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	few, _, err := pruned.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(few) >= len(all) {
		t.Fatalf("monitor verdict did not prune: %d vs %d", len(few), len(all))
	}
	if len(few) == 0 {
		t.Fatal("pruning removed the truth")
	}
	found := false
	for _, s := range few {
		if s.Equal(truth) {
			found = true
		}
	}
	if !found {
		t.Fatal("truth not among pruned candidates")
	}
}

func TestProbeOnWire(t *testing.T) {
	sim := rtl.NewSimulator()
	w := sim.Wire("traced", 8)
	mon := New(NewWindow(0, 4), 8)
	sim.AddProbe(NewProbe(mon, w))
	// Change the wire at committed cycles 2 and 6 of trace-cycle 0:
	// cycle 6 is outside the window -> violated.
	for i := 0; i < 8; i++ {
		if i == 1 || i == 5 { // commits at i+1
			w.Set(w.Get() + 1)
		}
		sim.Step()
	}
	vs := mon.Verdicts()
	if len(vs) != 1 || vs[0].Satisfied {
		t.Fatalf("verdicts %+v", vs)
	}
}

func TestMonitorPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(NewDk(1, 1), 0)
}

func TestFSMProperties(t *testing.T) {
	// Property() must round-trip to the right property type.
	if _, ok := NewDk(4, 2).Property().(properties.Dk); !ok {
		t.Error("Dk property type")
	}
	if _, ok := NewPairedChanges().Property().(properties.PairedChanges); !ok {
		t.Error("PairedChanges property type")
	}
	for _, f := range []FSM{NewDk(4, 2), NewMinGap(2), NewWindow(0, 4), NewPairedChanges(), NewPeriodic(4, 1)} {
		if f.String() == "" {
			t.Error("empty monitor name")
		}
	}
}
