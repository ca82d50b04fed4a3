package properties

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/reconstruct"
)

// enumerateUnder returns all m-bit signals satisfying ONLY the property
// (no timeprint constraints), via the SAT compilation.
func enumerateUnder(t *testing.T, p Property, m int) map[string]bool {
	t.Helper()
	b := cnf.NewBuilder(m)
	vars := make([]int, m)
	for i := range vars {
		vars[i] = i + 1
	}
	if err := p.Validate(m); err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	p.Apply(b, vars)
	out := map[string]bool{}
	_, st, _ := b.S.EnumerateModels(vars, 0, func(model map[int]bool) bool {
		v := bitvec.New(m)
		for i, x := range vars {
			if model[x] {
				v.Set(i, true)
			}
		}
		out[v.Key()] = true
		return true
	})
	if st.String() != "UNSAT" {
		t.Fatalf("%s: enumeration not exhausted", p)
	}
	return out
}

// semanticSet returns all m-bit signals for which Holds is true.
func semanticSet(p Property, m int) map[string]bool {
	out := map[string]bool{}
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		s := core.SignalFromVector(bitvec.FromUint(mask, m))
		if p.Holds(s) {
			out[s.Vector().Key()] = true
		}
	}
	return out
}

// checkCompilation verifies that the CNF compilation of p matches its
// concrete semantics exactly, for all 2^m signals.
func checkCompilation(t *testing.T, p Property, m int) {
	t.Helper()
	got := enumerateUnder(t, p, m)
	want := semanticSet(p, m)
	if len(got) != len(want) {
		t.Fatalf("%s over m=%d: compiled %d signals, semantics %d", p, m, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s over m=%d: semantic signal missing from compilation", p, m)
		}
	}
}

func TestP2Compilation(t *testing.T) {
	for _, m := range []int{2, 3, 6, 10} {
		checkCompilation(t, P2{}, m)
	}
}

func TestP2SingleCycle(t *testing.T) {
	// m=1: no pair can exist; compilation must be unsatisfiable.
	got := enumerateUnder(t, P2{}, 1)
	if len(got) != 0 {
		t.Fatalf("%d models", len(got))
	}
}

func TestDkCompilation(t *testing.T) {
	for _, tc := range []Dk{{D: 4, K: 2}, {D: 8, K: 3}, {D: 8, K: 0}, {D: 0, K: 0}, {D: 10, K: 10}} {
		checkCompilation(t, tc, 10)
	}
}

func TestDkValidation(t *testing.T) {
	if err := (Dk{D: 5, K: 1}).Validate(4); err == nil {
		t.Error("D > m accepted")
	}
}

func TestPairedChangesCompilation(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4, 8, 12} {
		checkCompilation(t, PairedChanges{}, m)
	}
}

func TestPairedChangesSemantics(t *testing.T) {
	cases := []struct {
		changes []int
		m       int
		want    bool
	}{
		{nil, 8, true},
		{[]int{3, 4}, 8, true},
		{[]int{0, 1, 4, 5}, 8, true},
		{[]int{3}, 8, false},
		{[]int{3, 4, 5}, 8, false},
		{[]int{3, 5}, 8, false},
		{[]int{6, 7}, 8, true},
		{[]int{7}, 8, false},
		{[]int{0, 1, 2, 3}, 8, false}, // two adjacent pairs merged: 4 consecutive
	}
	for _, tc := range cases {
		s := core.SignalFromChanges(tc.m, tc.changes...)
		if got := (PairedChanges{}).Holds(s); got != tc.want {
			t.Errorf("PairedChanges(%v) = %v, want %v", tc.changes, got, tc.want)
		}
	}
}

func TestWindowCompilation(t *testing.T) {
	for _, w := range []Window{{0, 10}, {3, 7}, {5, 5}, {0, 0}} {
		checkCompilation(t, w, 10)
	}
}

func TestWindowValidation(t *testing.T) {
	if err := (Window{Lo: 3, Hi: 2}).Validate(4); err == nil {
		t.Error("inverted window accepted")
	}
	if err := (Window{Lo: 0, Hi: 5}).Validate(4); err == nil {
		t.Error("overlong window accepted")
	}
}

func TestChangeBeforeAndQuietBefore(t *testing.T) {
	for _, d := range []int{1, 4, 10} {
		checkCompilation(t, ChangeBefore{D: d}, 10)
	}
	for _, d := range []int{0, 4, 10} {
		checkCompilation(t, QuietBefore{D: d}, 10)
	}
	// They partition the space: for any signal exactly one holds...
	// except the no-change signal, where ChangeBefore fails and
	// QuietBefore holds.
	for mask := uint64(0); mask < 1<<10; mask++ {
		s := core.SignalFromVector(bitvec.FromUint(mask, 10))
		cb := (ChangeBefore{D: 5}).Holds(s)
		qb := (QuietBefore{D: 5}).Holds(s)
		if cb == qb {
			t.Fatalf("ChangeBefore and QuietBefore agree on %s", s)
		}
	}
}

func TestMinGapCompilation(t *testing.T) {
	for _, g := range []int{1, 2, 3, 5} {
		checkCompilation(t, MinGap{Gap: g}, 9)
	}
}

func TestExactChangesCompilation(t *testing.T) {
	checkCompilation(t, ExactChanges{Changes: []int{2, 5}}, 8)
	checkCompilation(t, ExactChanges{Changes: nil}, 8)
}

// TestOneOfSignalsCompilation checks the selector encoding against
// Holds on fixed sets and on random ones that include duplicate
// candidates and the all-zero candidate.
func TestOneOfSignalsCompilation(t *testing.T) {
	cands := []core.Signal{
		core.SignalFromChanges(6, 0, 1),
		core.SignalFromChanges(6, 2, 3),
		core.SignalFromChanges(6, 4, 5),
	}
	checkCompilation(t, OneOfSignals{Candidates: cands}, 6)
	checkCompilation(t, OneOfSignals{Candidates: nil}, 4)

	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		m := 3 + r.Intn(6)
		var cands []core.Signal
		for n := 1 + r.Intn(6); len(cands) < n; {
			switch x := r.Intn(6); {
			case x == 0:
				cands = append(cands, core.SignalFromChanges(m))
			case x == 1 && len(cands) > 0:
				cands = append(cands, cands[r.Intn(len(cands))])
			default:
				cands = append(cands, core.SignalFromVector(bitvec.FromUint(r.Uint64(), m)))
			}
		}
		checkCompilation(t, OneOfSignals{Candidates: cands}, m)
	}
}

// TestStringsSeparateDifferentProperties pins the String forms that
// the service cache and the session guard table use as keys: two
// different properties must never share one.
func TestStringsSeparateDifferentProperties(t *testing.T) {
	if got := (ExactChanges{Changes: []int{1, 2, 3}}).String(); got != "ExactChanges(1,2,3)" {
		t.Errorf("ExactChanges String = %q", got)
	}
	if a, b := (ExactChanges{Changes: []int{3, 7}}).String(), (ExactChanges{Changes: []int{4, 9}}).String(); a == b {
		t.Errorf("exact(3,7) and exact(4,9) share key %q", a)
	}
	x := OneOfSignals{Candidates: []core.Signal{core.SignalFromChanges(8, 1, 2)}}
	y := OneOfSignals{Candidates: []core.Signal{core.SignalFromChanges(8, 5, 6)}}
	if x.String() == y.String() {
		t.Errorf("different unnamed candidate sets share key %q", x.String())
	}
	if x.String() != (OneOfSignals{Candidates: []core.Signal{core.SignalFromChanges(8, 1, 2)}}).String() {
		t.Error("equal candidate sets render differently")
	}
	// Equal delta and reference k, different references.
	a := DelayedVariants(core.SignalFromChanges(10, 2, 5), 1)
	b := DelayedVariants(core.SignalFromChanges(10, 3, 7), 1)
	if a.String() == b.String() {
		t.Errorf("DelayedVariants of different references share key %q", a.String())
	}
}

func TestAllCompilation(t *testing.T) {
	p := All{Dk{D: 6, K: 1}, Window{Lo: 2, Hi: 8}, MinGap{Gap: 2}}
	checkCompilation(t, p, 9)
	if p.String() == "" {
		t.Error("empty String")
	}
}

func TestDelayedVariants(t *testing.T) {
	ref := core.SignalFromChanges(10, 2, 5, 8)
	p := DelayedVariants(ref, 1)
	// Moves: 2->3 (ok), 5->6 (ok), 8->9 (ok): 3 variants.
	if len(p.Candidates) != 3 {
		t.Fatalf("%d variants", len(p.Candidates))
	}
	for _, c := range p.Candidates {
		if c.K() != ref.K() {
			t.Error("variant changed k")
		}
		if c.Equal(ref) {
			t.Error("variant equals reference")
		}
	}
	// Adjacent changes suppress moves onto occupied cycles.
	ref2 := core.SignalFromChanges(10, 2, 3)
	p2 := DelayedVariants(ref2, 1)
	if len(p2.Candidates) != 1 { // only 3->4 is free; 2->3 occupied
		t.Fatalf("%d variants, want 1", len(p2.Candidates))
	}
	// Moves past the end are dropped.
	ref3 := core.SignalFromChanges(10, 9)
	if len(DelayedVariants(ref3, 1).Candidates) != 0 {
		t.Error("move past end not dropped")
	}
}

func TestFigure4DidacticResolution(t *testing.T) {
	// Section 3.3: with the paired-changes property, the 8 candidates
	// of Figure 4 collapse to the single actual signal.
	raw := []string{
		"00010100", "00111010", "00001111", "01000100",
		"00000010", "10101110", "01100000", "11110101",
		"00010111", "11100111", "10100000", "10101000",
		"10011110", "10001111", "01110000", "01101100",
	}
	ts := make([]bitvec.Vector, len(raw))
	for i, s := range raw {
		ts[i] = bitvec.MustParse(s)
	}
	enc, err := encoding.FromTimestamps(ts, "figure4")
	if err != nil {
		t.Fatal(err)
	}
	actual := core.SignalFromChanges(16, 3, 4, 9, 10)
	entry := core.Log(enc, actual)

	// Unconstrained: 8 candidates.
	rec, err := reconstruct.New(enc, entry, nil, reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigs, exhausted, err := rec.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	if !exhausted || len(sigs) != 8 {
		t.Fatalf("unconstrained: %d candidates, want 8", len(sigs))
	}

	// With PairedChanges: exactly the actual signal.
	rec2, err := reconstruct.New(enc, entry, []reconstruct.Constraint{PairedChanges{}}, reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigs2, exhausted2, err := rec2.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	if !exhausted2 || len(sigs2) != 1 {
		t.Fatalf("paired: %d candidates, want 1", len(sigs2))
	}
	if !sigs2[0].Equal(actual) {
		t.Fatalf("paired candidate %s != actual %s", sigs2[0], actual)
	}

	// Section 3.3's deadline claim: all 8 candidates change before
	// cycle 8, so the deadline check holds no matter which occurred.
	for _, s := range sigs {
		if !(ChangeBefore{D: 8}).Holds(s) {
			t.Errorf("candidate %s misses the deadline claim", s)
		}
	}
	// Equivalent UNSAT proof: no candidate is quiet before cycle 8.
	rec3, err := reconstruct.New(enc, entry, []reconstruct.Constraint{QuietBefore{D: 8}}, reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := rec3.Check(); st.String() != "UNSAT" {
		t.Fatalf("QuietBefore(8) should be UNSAT, got %v", st)
	}
}

func TestPropertiesPruneReconstruction(t *testing.T) {
	// Constrained enumeration equals unconstrained enumeration filtered
	// by Holds — for random instances and every property.
	r := rand.New(rand.NewSource(55))
	enc, err := encoding.Incremental(12, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	props := []Property{
		P2{},
		Dk{D: 6, K: 1},
		PairedChanges{},
		Window{Lo: 2, Hi: 10},
		ChangeBefore{D: 5},
		QuietBefore{D: 3},
		MinGap{Gap: 3},
	}
	for trial := 0; trial < 8; trial++ {
		v := bitvec.New(12)
		for i := 0; i < 12; i++ {
			if r.Intn(3) == 0 {
				v.Set(i, true)
			}
		}
		entry := core.Log(enc, core.SignalFromVector(v))
		recAll, err := reconstruct.New(enc, entry, nil, reconstruct.Options{})
		if err != nil {
			t.Fatal(err)
		}
		all, _, err := recAll.EnumerateStrict(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range props {
			want := map[string]bool{}
			for _, s := range all {
				if p.Holds(s) {
					want[s.Vector().Key()] = true
				}
			}
			rec, err := reconstruct.New(enc, entry, []reconstruct.Constraint{p}, reconstruct.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, exhausted, err := rec.EnumerateStrict(0)
			if err != nil {
				t.Fatal(err)
			}
			if !exhausted {
				t.Fatalf("%s: not exhausted", p)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d constrained candidates, filter says %d", p, len(got), len(want))
			}
			for _, s := range got {
				if !want[s.Vector().Key()] {
					t.Fatalf("%s: constrained enumeration returned filtered-out signal", p)
				}
			}
		}
	}
}

// vecFromMask builds a width-m vector from mask bits (test helper
// shared with the TCL tests).
func vecFromMask(mask uint64, m int) bitvec.Vector {
	return bitvec.FromUint(mask, m)
}

// TestValidateFitsTraceCycle pins Validate for every property: each
// fits a 10-cycle trace-cycle and its ill-fitting twin does not, and a
// conjunction fails when any conjunct does.
func TestValidateFitsTraceCycle(t *testing.T) {
	const m = 10
	sig := core.SignalFromChanges(m, 2)
	cases := []struct{ ok, bad Property }{
		{P2{}, nil},
		{PairedChanges{}, nil},
		{Never{}, nil},
		{Dk{D: 10, K: 1}, Dk{D: 11, K: 1}},
		{Window{Lo: 0, Hi: 10}, Window{Lo: 0, Hi: 11}},
		{ChangeOutside{Lo: 2, Hi: 4}, ChangeOutside{Lo: -1, Hi: 4}},
		{ChangeBefore{D: 1}, ChangeBefore{D: 0}},
		{QuietBefore{D: 0}, QuietBefore{D: 11}},
		{MinGap{Gap: 1}, MinGap{Gap: 0}},
		{MaxGap{Gap: 1}, MaxGap{Gap: 0}},
		{Response{L: 1, U: 1}, Response{L: 2, U: 1}},
		{Periodic{Period: 1, Jitter: 0}, Periodic{Period: 0, Jitter: 0}},
		{CountBetween{Lo: 0, Hi: 10, Min: 1, Max: -1}, CountBetween{Lo: 4, Hi: 3}},
		{FirstChangeIn{Lo: 0, Hi: 1}, FirstChangeIn{Lo: 1, Hi: 1}},
		{ExactChanges{Changes: []int{0, 9}}, ExactChanges{Changes: []int{10}}},
		{OneOfSignals{Candidates: []core.Signal{sig}}, OneOfSignals{Candidates: []core.Signal{core.SignalFromChanges(m+1, 2)}}},
		{All{P2{}, Window{Lo: 0, Hi: 10}}, All{P2{}, Window{Lo: 0, Hi: 11}}},
	}
	for _, tc := range cases {
		if err := tc.ok.Validate(m); err != nil {
			t.Errorf("%s: %v", tc.ok, err)
		}
		if tc.bad != nil && tc.bad.Validate(m) == nil {
			t.Errorf("%s accepted at m=%d", tc.bad, m)
		}
	}
}
