package diffcheck

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reconstruct"
	"repro/internal/sat"
)

// TestPresolveReducesConflicts runs the diffcheck corpus through the
// reconstruction path twice — GF(2) presolve on vs off — publishing
// solver counters into separate registries, and asserts the presolve
// strictly reduces the aggregate SAT conflict count while leaving the
// candidate sets identical. This pins the ablation claim with the
// metrics layer itself rather than ad-hoc instrumentation.
func TestPresolveReducesConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	sweep := DefaultSweep()
	regOn, regOff := obs.NewRegistry(), obs.NewRegistry()
	const cases = 72

	for n := 0; n < cases; n++ {
		g := sweep[n%len(sweep)]
		kCap := min(6, g.M)
		if g.KMax > 0 {
			kCap = min(kCap, g.KMax)
		}
		cs := CaseSpec{Geometry: g, EncSeed: rng.Int63(), K: rng.Intn(kCap + 1)}
		enc, err := buildEncoding(g, cs.EncSeed)
		if err != nil {
			t.Fatalf("case %d [%s]: %v", n, g, err)
		}
		cs.TruthChanges = rng.Perm(g.M)[:cs.K]
		sort.Ints(cs.TruthChanges)
		entry := core.Log(enc, core.SignalFromChanges(g.M, cs.TruthChanges...))

		sets := make([]map[string]bool, 2)
		for i, opts := range []reconstruct.Options{
			{Obs: regOn},
			{Obs: regOff, NoPresolve: true},
		} {
			rec, err := reconstruct.New(enc, entry, nil, opts)
			if err != nil {
				t.Fatalf("case %d [%s]: %v", n, g, err)
			}
			sigs, exhausted, err := rec.EnumerateStrict(0)
			if err != nil {
				t.Fatal(err)
			}
			if !exhausted {
				t.Fatalf("case %d [%s]: enumeration not exhausted", n, g)
			}
			set := make(map[string]bool, len(sigs))
			for _, s := range sigs {
				set[s.Vector().Key()] = true
			}
			sets[i] = set
		}
		if len(sets[0]) != len(sets[1]) {
			t.Fatalf("case %d [%s]: presolve changed the candidate set: %d vs %d",
				n, g, len(sets[0]), len(sets[1]))
		}
		for k := range sets[0] {
			if !sets[1][k] {
				t.Fatalf("case %d [%s]: candidate %s only found with presolve", n, g, k)
			}
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
	if got := off.Counters[reconstruct.MetricPresolveDisabled]; got != cases {
		t.Errorf("presolve-off registry recorded %d disabled builds, want %d", got, cases)
	}
	if on.Counters[reconstruct.MetricPresolveFreed] == 0 {
		t.Error("presolve freed no parity rows across the whole corpus")
	}
}
