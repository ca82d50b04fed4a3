// Paper ablations of the Signal Reconstruction encoding (DESIGN.md §5).
// reconstruct.New builds exactly one encoding: the GF(2)-presolved
// parity rows of A·x = TP as native XOR clauses cut at length 8, plus
// the Sinz sequential counter for |x| = k. The instances here replace
// one part of it with its ablation baseline and are built straight from
// internal/cnf primitives:
//
//   - raw parity rows: the b rows of A·x = TP as the solver would see
//     them without the presolve;
//   - Tseitin XOR: each row expanded to plain CNF instead of native XOR
//     clauses;
//   - cut length: native rows cut at another length, or not at all;
//   - binomial cardinality: the naive C(m, k+1)-clause encoding instead
//     of the sequential counter.
package timeprints_test

import (
	"maps"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/reconstruct"
	"repro/internal/sat"
)

// ablation selects one variant of the SR encoding. Every variant feeds
// the raw parity rows to the solver.
type ablation struct {
	name     string
	xorCNF   bool // Tseitin-expand parity rows instead of native XOR clauses
	cut      int  // cut native rows longer than cut; 0 keeps them whole
	binomial bool // naive binomial cardinality instead of the Sinz counter
}

// rawAblation is reconstruct.New's encoding minus the presolve: raw
// parity rows cut at the same length 8, and the Sinz counter.
var rawAblation = ablation{name: "raw", cut: 8}

// ablationInstance is one built ablation: a solver over the signal
// variables 1..m.
type ablationInstance struct {
	bld  *cnf.Builder
	vars []int
}

// newAblation builds entry's SR instance under enc in the given
// variant. reg (may be nil) receives the solver counters; maxConflicts
// bounds each Solve (0: unlimited).
func newAblation(enc *encoding.Encoding, entry core.LogEntry, a ablation, reg *obs.Registry, maxConflicts int64) (*ablationInstance, error) {
	m := enc.M()
	bld := cnf.NewBuilder(m)
	bld.S.Obs = reg
	bld.S.MaxConflicts = maxConflicts
	vars := make([]int, m)
	for i := range vars {
		vars[i] = i + 1
	}
	// One parity row per timeprint bit j: XOR of {x_i : TS(i)_j = 1}
	// equals TP_j.
	ts := enc.Timestamps()
	for j := 0; j < enc.B(); j++ {
		var row []int
		for i := 0; i < m; i++ {
			if ts[i].Get(j) {
				row = append(row, vars[i])
			}
		}
		switch rhs := entry.TP.Get(j); {
		case a.xorCNF:
			bld.AddXorCNF(row, rhs)
		case a.cut > 0:
			bld.AddXorCut(row, rhs, a.cut)
		default:
			bld.AddXor(row, rhs)
		}
	}
	if a.binomial {
		if err := bld.ExactlyKBinomial(vars, entry.K); err != nil {
			return nil, err
		}
	} else {
		bld.ExactlyK(vars, entry.K)
	}
	return &ablationInstance{bld: bld, vars: vars}, nil
}

// enumerate finds up to limit candidate signals (limit <= 0: all) and
// reports whether the space was exhausted. It consumes the instance.
func (a *ablationInstance) enumerate(limit int) ([]core.Signal, bool, error) {
	var out []core.Signal
	_, st, err := a.bld.S.EnumerateModels(a.vars, limit, func(model map[int]bool) bool {
		v := bitvec.New(len(a.vars))
		for i, x := range a.vars {
			if model[x] {
				v.Set(i, true)
			}
		}
		out = append(out, core.SignalFromVector(v))
		return true
	})
	return out, st == sat.Unsat, err
}

// signalKeys renders a candidate list as a set.
func signalKeys(sigs []core.Signal) map[string]bool {
	out := make(map[string]bool, len(sigs))
	for _, s := range sigs {
		out[s.Vector().Key()] = true
	}
	return out
}

// TestAblationModesAgree checks that every ablation variant finds
// exactly the candidate set of reconstruct.New and of GF(2) brute
// force, on two seeded corpora of small random signals: a fixed m=14
// encoding, and m in [10, 16] with b in [9, 11].
func TestAblationModesAgree(t *testing.T) {
	modes := []ablation{
		rawAblation,
		{name: "cnfxor-sinz", xorCNF: true},
		{name: "native-binom", cut: 8, binomial: true},
		{name: "cnfxor-binom", xorCNF: true, binomial: true},
	}
	check := func(trial int, enc *encoding.Encoding, entry core.LogEntry) {
		t.Helper()
		rec, err := reconstruct.New(enc, entry, nil, reconstruct.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sigs, exhausted, err := rec.EnumerateStrict(0)
		if err != nil || !exhausted {
			t.Fatalf("trial %d: presolve exhausted=%v err=%v", trial, exhausted, err)
		}
		want := signalKeys(sigs)
		bf, err := reconstruct.BruteForce(enc, entry, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(signalKeys(bf), want) {
			t.Fatalf("trial %d: brute force found %d, presolve %d", trial, len(bf), len(want))
		}
		for _, mode := range modes {
			inst, err := newAblation(enc, entry, mode, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, exhausted, err := inst.enumerate(0)
			if err != nil || !exhausted {
				t.Fatalf("trial %d: %s exhausted=%v err=%v", trial, mode.name, exhausted, err)
			}
			if !maps.Equal(signalKeys(got), want) {
				t.Fatalf("trial %d: %s found %d candidates, presolve %d", trial, mode.name, len(got), len(want))
			}
		}
	}
	randomSignal := func(r *rand.Rand, m, oneIn int) core.Signal {
		v := bitvec.New(m)
		for i := 0; i < m; i++ {
			if r.Intn(oneIn) == 0 {
				v.Set(i, true)
			}
		}
		return core.SignalFromVector(v)
	}

	r := rand.New(rand.NewSource(77))
	enc, err := encoding.Incremental(14, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		check(trial, enc, core.Log(enc, randomSignal(r, 14, 4)))
	}

	r = rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		m := 10 + r.Intn(7)
		enc, err := encoding.Incremental(m, 9+r.Intn(3), 4)
		if err != nil {
			t.Fatal(err)
		}
		check(trial, enc, core.Log(enc, randomSignal(r, m, 3)))
	}
}

// TestPresolveReducesConflicts runs a 72-case slice of the diffcheck
// sweep through reconstruct.New and through the raw-rows ablation,
// publishing solver counters into separate registries, and asserts the
// presolve strictly reduces the aggregate SAT conflict count while
// leaving the candidate sets identical. This pins the ablation claim
// with the metrics layer itself rather than ad-hoc instrumentation.
func TestPresolveReducesConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	sweep := diffcheck.DefaultSweep()
	regOn, regOff := obs.NewRegistry(), obs.NewRegistry()
	const cases = 72

	for n := 0; n < cases; n++ {
		g := sweep[n%len(sweep)]
		kCap := min(6, g.M)
		if g.KMax > 0 {
			kCap = min(kCap, g.KMax)
		}
		cs := diffcheck.CaseSpec{Geometry: g, EncSeed: rng.Int63(), K: rng.Intn(kCap + 1)}
		enc, err := cs.Encoding()
		if err != nil {
			t.Fatalf("case %d [%s]: %v", n, g, err)
		}
		cs.TruthChanges = rng.Perm(g.M)[:cs.K]
		sort.Ints(cs.TruthChanges)
		entry := core.Log(enc, core.SignalFromChanges(g.M, cs.TruthChanges...))

		rec, err := reconstruct.New(enc, entry, nil, reconstruct.Options{Obs: regOn})
		if err != nil {
			t.Fatalf("case %d [%s]: %v", n, g, err)
		}
		on, exhaustedOn, err := rec.EnumerateStrict(0)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := newAblation(enc, entry, rawAblation, regOff, 0)
		if err != nil {
			t.Fatalf("case %d [%s]: %v", n, g, err)
		}
		off, exhaustedOff, err := raw.enumerate(0)
		if err != nil {
			t.Fatal(err)
		}
		if !exhaustedOn || !exhaustedOff {
			t.Fatalf("case %d [%s]: enumeration not exhausted", n, g)
		}
		if !maps.Equal(signalKeys(on), signalKeys(off)) {
			t.Fatalf("case %d [%s]: presolve changed the candidate set: %d vs %d",
				n, g, len(on), len(off))
		}
	}

	on, off := regOn.Snapshot(), regOff.Snapshot()
	conflOn, conflOff := on.Counters[sat.MetricConflicts], off.Counters[sat.MetricConflicts]
	t.Logf("conflicts: presolve on %d, off %d (props %d vs %d)",
		conflOn, conflOff, on.Counters[sat.MetricPropagations], off.Counters[sat.MetricPropagations])
	if conflOn >= conflOff {
		t.Errorf("presolve did not reduce aggregate conflicts: on %d >= off %d", conflOn, conflOff)
	}
	if got := on.Counters[reconstruct.MetricInstances]; got != cases {
		t.Errorf("presolve-on registry saw %d instances, want %d", got, cases)
	}
	if on.Counters[reconstruct.MetricPresolveFreed] == 0 {
		t.Error("presolve freed no parity rows across the whole corpus")
	}
}
