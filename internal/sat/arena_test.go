package sat

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
)

// checkArena asserts the clause arena's invariants on a solver at
// rest (between API calls):
//   - every watcher names an unfreed clause that watches the list's
//     literal, i.e. whose lits[0] or lits[1] is its negation;
//   - every assigned variable with a clause reason names an unfreed
//     clause whose lits[0] is the variable's true literal;
//   - freed words stay at most a fifth of the arena, which reduceDB and
//     DropGuard restore by relocating;
//   - the arena holds exactly the listed clauses plus the freed words,
//     and each listed clause is watched twice.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	for p, ws := range s.watches {
		for _, w := range ws {
			if s.hasFlag(w.cref, flagFreed) {
				t.Fatalf("watch list %d names freed clause %d", p, w.cref)
			}
			if lits := s.clauseLits(w.cref); lits[0] != lit(p).not() && lits[1] != lit(p).not() {
				t.Fatalf("watch list %d names clause %d %v, which does not watch %d", p, w.cref, lits, lit(p).not())
			}
		}
	}
	for v, r := range s.reasons {
		if r.kind != reasonClause || s.assigns[v] == valUnassigned {
			continue
		}
		c := cref(r.ref)
		if s.hasFlag(c, flagFreed) {
			t.Fatalf("variable %d: reason is freed clause %d", v, c)
		}
		if got, want := s.clauseLits(c)[0], mkLit(int32(v), s.assigns[v] == valFalse); got != want {
			t.Fatalf("variable %d: reason %d asserts %d, want %d", v, c, got, want)
		}
	}
	if s.wasted*5 > len(s.ca) {
		t.Fatalf("wasted %d words of %d: more than a fifth", s.wasted, len(s.ca))
	}
	live, listed := 0, 0
	count := func(cs []cref, learned bool) {
		for _, c := range cs {
			if s.hasFlag(c, flagFreed) || s.hasFlag(c, flagLearned) != learned {
				t.Fatalf("listed clause %d has flags %b", c, s.ca[c-hdrFlags])
			}
			live += clauseWords(int(s.ca[c]))
			listed++
		}
	}
	count(s.clauses, false)
	count(s.learnts, true)
	for _, cs := range s.guarded {
		count(cs, false)
	}
	if live+s.wasted != len(s.ca) {
		t.Fatalf("arena has %d words, want %d live + %d wasted", len(s.ca), live, s.wasted)
	}
	watchers := 0
	for _, ws := range s.watches {
		watchers += len(ws)
	}
	if watchers != 2*listed {
		t.Fatalf("%d watchers for %d clauses", watchers, listed)
	}
}

// checkRelocated compacts the arena and asserts it then holds exactly
// the live clauses, with every invariant intact.
func checkRelocated(t *testing.T, s *Solver) {
	t.Helper()
	s.relocAll()
	if s.wasted != 0 {
		t.Fatalf("wasted = %d after relocation", s.wasted)
	}
	checkArena(t, s)
}

// TestWatcherAndReasonHoldNoPointers pins the property the arena
// exists for: watch lists and the reason table are flat 8-byte
// records, so the garbage collector never scans them and a watch
// visit loads no pointer.
func TestWatcherAndReasonHoldNoPointers(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint,
			reflect.Float32, reflect.Float64:
			return true
		case reflect.Array:
			return pointerFree(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if !pointerFree(t.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(watcher{}), reflect.TypeOf(reason{})} {
		if !pointerFree(typ) {
			t.Errorf("%v holds pointers", typ)
		}
		if typ.Size() != 8 {
			t.Errorf("%v is %d bytes, want 8", typ, typ.Size())
		}
	}
}

func TestArenaFits(t *testing.T) {
	if !arenaFits(0, 3) {
		t.Fatal("an empty arena must fit a clause")
	}
	if arenaFits(math.MaxUint32-clauseWords(3)+1, 3) {
		t.Fatal("a clause whose words pass 2^32-1 must not fit")
	}
	if !arenaFits(math.MaxUint32-clauseWords(3), 3) {
		t.Fatal("a clause ending at 2^32-1 must fit")
	}
}

// TestCloneDeterministicWithGuards: a clone attaches guard groups in
// ascending selector order, not map order, so two clones of a solver
// with live guard groups search identically.
func TestCloneDeterministicWithGuards(t *testing.T) {
	const nVars, groups = 80, 6
	r := rand.New(rand.NewSource(7))
	s := New(nVars)
	sels := make([]int, groups)
	for g := range sels {
		sels[g] = s.NewVar()
	}
	lit3 := func() []int {
		out := make([]int, 3)
		for i := range out {
			out[i] = 1 + r.Intn(nVars)
			if r.Intn(2) == 0 {
				out[i] = -out[i]
			}
		}
		return out
	}
	for i := 0; i < 200; i++ {
		mustAdd(t, s, lit3()...)
	}
	for i := 0; i < 180; i++ {
		if err := s.AddGuardedClause(sels[i%groups], lit3()...); err != nil {
			t.Fatal(err)
		}
	}
	a, b := s.Clone(), s.Clone()
	sa, sb := a.SolveAssuming(sels), b.SolveAssuming(sels)
	if sa != sb || a.Stats != b.Stats {
		t.Fatalf("clones diverged: %v %+v vs %v %+v", sa, a.Stats, sb, b.Stats)
	}
	if a.Stats.Conflicts < 50 {
		t.Fatalf("only %d conflicts: too easy for watch order to matter", a.Stats.Conflicts)
	}
	checkArena(t, a)
}

// forensicSession builds, with the solver API alone, the shape a
// warm reconstruction session gives the m=128 paper encoding: one
// uncut parity row per timeprint bit folded with a selector variable,
// a "at least j of m" ladder over the signal variables, and level-0
// Gauss. It returns the solver, the selectors and the ladder outputs.
func forensicSession(t *testing.T, enc *encoding.Encoding, maxK int) (*Solver, []int, []int) {
	m, b := enc.M(), enc.B()
	s := New(m)
	s.EnableGauss = true
	ts := enc.Timestamps()
	sels := make([]int, b)
	for j := range sels {
		sels[j] = s.NewVar()
		row := []int{sels[j]}
		for i := 0; i < m; i++ {
			if ts[i].Get(j) {
				row = append(row, i+1)
			}
		}
		if err := s.AddXorClause(row, false); err != nil {
			t.Fatal(err)
		}
	}
	// u[i][j] ≡ at least j of x1..xi, for j in 1..w.
	w := maxK + 1
	u := make([][]int, m+1)
	for i := 1; i <= m; i++ {
		u[i] = make([]int, w+1)
		for j := 1; j <= w; j++ {
			u[i][j] = s.NewVar()
		}
	}
	mustAdd(t, s, -u[1][1], 1)
	mustAdd(t, s, u[1][1], -1)
	for j := 2; j <= w; j++ {
		mustAdd(t, s, -u[1][j])
	}
	for i := 2; i <= m; i++ {
		for j := 1; j <= w; j++ {
			mustAdd(t, s, -u[i-1][j], u[i][j])
			if j == 1 {
				mustAdd(t, s, -i, u[i][1])
			} else {
				mustAdd(t, s, -i, -u[i-1][j-1], u[i][j])
			}
			mustAdd(t, s, -u[i][j], u[i-1][j], i)
			if j > 1 {
				mustAdd(t, s, -u[i][j], u[i-1][j], u[i-1][j-1])
			}
		}
	}
	return s, sels, u[m][1:]
}

// forensicQuery plants a k-change burst inside a random 48-cycle
// window of the m=128 encoding, guards the window on s as a new guard
// group, and returns the assumptions that ask forensicSession's solver
// for a witness: the TP selectors, the ladder bounds and the guard.
func forensicQuery(t *testing.T, s *Solver, enc *encoding.Encoding, r *rand.Rand, k int, tpSel, ladder []int) []int {
	t.Helper()
	const window = 48
	m := enc.M()
	from := r.Intn(m - window + 1)
	changes := r.Perm(window)[:k]
	for i := range changes {
		changes[i] += from
	}
	entry := core.Log(enc, core.SignalFromChanges(m, changes...))
	assumps := make([]int, 0, len(tpSel)+3)
	for j, sel := range tpSel {
		if entry.TP.Get(j) {
			assumps = append(assumps, sel)
		} else {
			assumps = append(assumps, -sel)
		}
	}
	guard := s.NewVar()
	for i := 0; i < m; i++ {
		if i < from || i >= from+window {
			if err := s.AddGuardedClause(guard, -(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return append(assumps, ladder[k-1], -ladder[k], guard)
}

// TestArenaInvariantsWarmSession runs forensic-shaped witness queries
// (a k = 4..8 burst inside a fresh 48-cycle window, each window a new
// guard group) on one warm solver, checking the arena after every
// query, until reduceDB and DropGuard have freed enough for at least
// one relocation to have run.
func TestArenaInvariantsWarmSession(t *testing.T) {
	const m, queries = 128, 12
	enc, err := encoding.Incremental(m, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, tpSel, ladder := forensicSession(t, enc, 16)
	vars := make([]int, m)
	for i := range vars {
		vars[i] = i + 1
	}
	r := rand.New(rand.NewSource(1))
	for q := 0; q < queries; q++ {
		assumps := forensicQuery(t, s, enc, r, 4+q%5, tpSel, ladder)
		n, st, err := s.EnumerateAssuming(assumps, vars, 1, func(map[int]bool) bool { return true })
		if err != nil || n != 1 || st != Sat {
			t.Fatalf("query %d: n=%d st=%v err=%v, want one witness", q, n, st, err)
		}
		checkArena(t, s)
	}
	t.Logf("%d queries: %d conflicts, %d pruned, %d relocations, arena %d words", queries, s.Stats.Conflicts, s.Stats.LearnedPruned, s.relocs, len(s.ca))
	if s.relocs == 0 {
		t.Fatal("no relocation ran; the session is too short to exercise compaction")
	}
	checkRelocated(t, s)
	c := s.Clone()
	checkArena(t, c)
	if len(c.ca) != len(s.ca) {
		t.Fatalf("clone arena %d words, original %d live", len(c.ca), len(s.ca))
	}
}
