package sat

import (
	"math/rand"
	"testing"
)

func TestSolveAssumingBasic(t *testing.T) {
	s := New(3)
	mustAdd(t, s, 1, 2)

	if st := s.SolveAssuming([]int{-1}); st != Sat {
		t.Fatalf("assume -1: status %v", st)
	}
	if !s.Value(2) {
		t.Fatalf("assume -1: expected x2 true")
	}
	if st := s.SolveAssuming([]int{-2}); st != Sat {
		t.Fatalf("assume -2: status %v", st)
	}
	if !s.Value(1) {
		t.Fatalf("assume -2: expected x1 true")
	}
	if st := s.SolveAssuming([]int{-1, -2}); st != Unsat {
		t.Fatalf("assume -1,-2: status %v, want Unsat", st)
	}
	// Unsat under assumptions must not poison the solver.
	if st := s.Solve(); st != Sat {
		t.Fatalf("solver unusable after Unsat-under-assumptions: %v", st)
	}
	if got := s.Stats.AssumptionSolves; got != 3 {
		t.Fatalf("AssumptionSolves = %d, want 3", got)
	}
}

func TestSolveAssumingRetracted(t *testing.T) {
	s := New(4)
	mustAdd(t, s, 1, 2, 3, 4)
	if st := s.SolveAssuming([]int{2, 3}); st != Sat {
		t.Fatalf("status %v", st)
	}
	// The model keeps reporting the assumed values...
	if !s.Value(2) || !s.Value(3) {
		t.Fatalf("model lost assumption values")
	}
	// ...but the trail is fully unwound: nothing is assigned.
	if s.decisionLevel() != 0 {
		t.Fatalf("decision level %d after SolveAssuming", s.decisionLevel())
	}
	for v := 0; v < s.numVars; v++ {
		if s.assigns[v] != valUnassigned {
			t.Fatalf("variable %d still assigned after retraction", v+1)
		}
	}
	// Opposite assumptions next call: no leftover forced values.
	if st := s.SolveAssuming([]int{-2, -3}); st != Sat {
		t.Fatalf("opposite assumptions: %v", st)
	}
	if s.Value(2) || s.Value(3) {
		t.Fatalf("assumptions leaked into next call")
	}
}

func TestSolveAssumingContradictorySet(t *testing.T) {
	s := New(2)
	mustAdd(t, s, 1, 2)
	if st := s.SolveAssuming([]int{1, -1}); st != Unsat {
		t.Fatalf("contradictory assumptions: %v, want Unsat", st)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("solver unusable after contradictory assumptions: %v", st)
	}
}

// TestSolveAssumingMatchesRebuild cross-checks assumption solving
// against building a fresh solver with the assumptions added as unit
// clauses, over random 3-CNF instances.
func TestSolveAssumingMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		n := 8 + rng.Intn(6)
		numClauses := 2 + rng.Intn(4*n)
		clauses := make([][]int, numClauses)
		for i := range clauses {
			cls := make([]int, 3)
			for j := range cls {
				v := 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cls[j] = v
			}
			clauses[i] = cls
		}
		inc := New(n)
		for _, c := range clauses {
			mustAdd(t, inc, c...)
		}
		for q := 0; q < 8; q++ {
			var assumps []int
			for v := 1; v <= n; v++ {
				if rng.Intn(4) == 0 {
					if rng.Intn(2) == 0 {
						assumps = append(assumps, v)
					} else {
						assumps = append(assumps, -v)
					}
				}
			}
			fresh := New(n)
			for _, c := range clauses {
				mustAdd(t, fresh, c...)
			}
			for _, a := range assumps {
				mustAdd(t, fresh, a)
			}
			want := fresh.Solve()
			got := inc.SolveAssuming(assumps)
			if got != want {
				t.Fatalf("round %d query %d: assumptions %v: incremental %v, rebuild %v",
					round, q, assumps, got, want)
			}
		}
	}
}

func TestEnumerateAssumingNoPollution(t *testing.T) {
	s := New(3)
	// No constraints: 8 models on {1,2,3}.
	all := func(map[int]bool) bool { return true }
	for round := 0; round < 3; round++ {
		n, st, err := s.EnumerateAssuming(nil, []int{1, 2, 3}, 0, all)
		if err != nil || st != Unsat || n != 8 {
			t.Fatalf("round %d: n=%d st=%v err=%v, want 8/Unsat/nil", round, n, st, err)
		}
	}
	// Under an assumption the space halves; afterwards the full space
	// is still intact.
	n, st, err := s.EnumerateAssuming([]int{1}, []int{1, 2, 3}, 0, all)
	if err != nil || st != Unsat || n != 4 {
		t.Fatalf("assuming 1: n=%d st=%v err=%v, want 4/Unsat/nil", n, st, err)
	}
	n, st, err = s.EnumerateAssuming(nil, []int{1, 2, 3}, 0, all)
	if err != nil || st != Unsat || n != 8 {
		t.Fatalf("after assumed run: n=%d st=%v err=%v, want 8/Unsat/nil", n, st, err)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("solver unusable after enumerations: %v", st)
	}
}

func TestEnumerateAssumingLimitAndStop(t *testing.T) {
	s := New(4)
	all := func(map[int]bool) bool { return true }
	n, st, err := s.EnumerateAssuming(nil, []int{1, 2, 3, 4}, 5, all)
	if err != nil || st != Sat || n != 5 {
		t.Fatalf("limit run: n=%d st=%v err=%v", n, st, err)
	}
	stops := 0
	n, st, err = s.EnumerateAssuming(nil, []int{1, 2, 3, 4}, 0, func(map[int]bool) bool {
		stops++
		return stops < 3
	})
	if err != nil || st != Sat || n != 3 {
		t.Fatalf("fn-stop run: n=%d st=%v err=%v", n, st, err)
	}
	// Neither truncated run may leave blocking clauses behind.
	n, st, err = s.EnumerateAssuming(nil, []int{1, 2, 3, 4}, 0, all)
	if err != nil || st != Unsat || n != 16 {
		t.Fatalf("full run after truncated runs: n=%d st=%v err=%v, want 16", n, st, err)
	}
}

func TestGuardedClauseLifecycle(t *testing.T) {
	s := New(2)
	sel := s.acquireSelector()
	if err := s.AddGuardedClause(sel, -1); err != nil {
		t.Fatal(err)
	}
	if st := s.SolveAssuming([]int{sel, 1}); st != Unsat {
		t.Fatalf("guarded clause inactive: %v", st)
	}
	// Guard not assumed: the clause has no force.
	if st := s.SolveAssuming([]int{1}); st != Sat {
		t.Fatalf("guarded clause leaked without its selector: %v", st)
	}
	s.DropGuard(sel)
	s.retireSelector(sel)
	// The retired selector pins false, so the old guard stays inert and
	// a fresh selector starts clean.
	if st := s.SolveAssuming([]int{1}); st != Sat {
		t.Fatalf("dropped guard still active: %v", st)
	}
	sel2 := s.acquireSelector()
	if sel2 == sel {
		t.Fatalf("retired selector %d was reissued", sel)
	}
	if st := s.SolveAssuming([]int{sel2, 1}); st != Sat {
		t.Fatalf("fresh selector inherited old guard: %v", st)
	}
}

func TestCloneCarriesGuardedClauses(t *testing.T) {
	s := New(2)
	sel := s.acquireSelector()
	if err := s.AddGuardedClause(sel, -1); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if st := c.SolveAssuming([]int{sel, 1}); st != Unsat {
		t.Fatalf("clone lost guarded clause: %v", st)
	}
	c.DropGuard(sel)
	if st := c.SolveAssuming([]int{sel, 1}); st != Sat {
		t.Fatalf("clone DropGuard ineffective: %v", st)
	}
	// The original is untouched by the clone's DropGuard.
	if st := s.SolveAssuming([]int{sel, 1}); st != Unsat {
		t.Fatalf("clone DropGuard affected original: %v", st)
	}
}

// TestDeletedClausesNotRetained drives a reused solver through
// guarded enumerations until reduceDB has pruned learnt clauses and
// DropGuard has freed blocking clauses, checking the clause arena after
// every round: no watcher or reason may name a freed clause, and freed
// words may not outgrow a fifth of the arena, so a long-lived session
// solver's memory does not grow with every clause it ever held.
func TestDeletedClausesNotRetained(t *testing.T) {
	s := guardedPHP(7)
	for round := 0; round < 3; round++ {
		n, st, err := s.EnumerateAssuming(nil, []int{1, 2, 3}, 0, func(map[int]bool) bool { return true })
		if err != nil || st != Unsat || n != 4 {
			t.Fatalf("round %d: n=%d st=%v err=%v, want 4/Unsat/nil", round, n, st, err)
		}
		checkArena(t, s)
	}
	t.Logf("conflicts=%d learned=%d pruned=%d relocations=%d", s.Stats.Conflicts, s.Stats.Learned, s.Stats.LearnedPruned, s.relocs)
	if s.Stats.LearnedPruned == 0 {
		t.Fatal("reduceDB never ran; the instance is too easy to exercise it")
	}
	checkRelocated(t, s)
}
