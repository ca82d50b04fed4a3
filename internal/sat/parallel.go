package sat

import (
	"runtime"
	"sort"
	"sync"
)

// Model is a projected satisfying assignment as delivered by the
// parallel drivers: Model[i] is the value of the i-th projection
// variable.
type Model []bool

// lessModel orders models lexicographically (false < true), the
// canonical order the parallel drivers merge under so that results do
// not depend on worker count or scheduling.
func lessModel(a, b Model) bool {
	for i := range a {
		if a[i] != b[i] {
			return b[i]
		}
	}
	return false
}

// SortModels sorts models into the canonical lexicographic order.
func SortModels(ms []Model) {
	sort.Slice(ms, func(i, j int) bool { return lessModel(ms[i], ms[j]) })
}

// ParallelOptions tunes the cube-split drivers.
type ParallelOptions struct {
	// Workers is the solver pool size; <= 0 means runtime.GOMAXPROCS.
	Workers int
	// MaxCubeVars caps the number of split variables (the number of
	// cubes is 2^vars); <= 0 means the default of 8 (256 cubes).
	MaxCubeVars int
}

func (o ParallelOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o ParallelOptions) maxCubeVars() int {
	if o.MaxCubeVars <= 0 {
		return 8
	}
	return o.MaxCubeVars
}

// pickCubeVars selects up to n projection variables to split the
// search space on, preferring variables that occur in many clauses and
// parity rows — the static analogue of branching on high-activity
// variables (activities are all zero before the first solve).
// Variables already assigned at level 0 are skipped; ties break toward
// the lower variable index so the cube set is deterministic.
func pickCubeVars(s *Solver, projection []int, n int) []int {
	if n <= 0 {
		return nil
	}
	occ := make(map[int32]int, len(projection))
	inProj := make(map[int32]bool, len(projection))
	for _, v := range projection {
		if v >= 1 && v <= s.numVars && s.assigns[v-1] == valUnassigned {
			inProj[int32(v-1)] = true
		}
	}
	count := func(v int32) {
		if inProj[v] {
			occ[v]++
		}
	}
	for _, c := range s.clauses {
		for _, l := range s.clauseLits(c) {
			count(l.varIdx())
		}
	}
	for _, x := range s.xors {
		for _, v := range x.vars {
			count(v)
		}
	}
	cands := make([]int32, 0, len(inProj))
	for v := range inProj {
		cands = append(cands, v)
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if occ[a] != occ[b] {
			return occ[a] > occ[b]
		}
		return a < b
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]int, len(cands))
	for i, v := range cands {
		out[i] = int(v) + 1
	}
	return out
}

// cubeLits returns the assumption prefix of cube i over the split
// variables: bit j of i clear means vars[j] is asserted true, set
// means false. Cubes enumerate all 2^len(vars) sign combinations, so
// they partition the search space — models found in distinct cubes are
// distinct by construction.
func cubeLits(vars []int, i int) []int {
	out := make([]int, len(vars))
	for j, v := range vars {
		if i&(1<<j) != 0 {
			out[j] = -v
		} else {
			out[j] = v
		}
	}
	return out
}

// cubePlan decides the split degree for the instance: enough cubes to
// keep every worker busy with headroom for load imbalance, bounded by
// the available split variables.
func cubePlan(s *Solver, projection []int, opts ParallelOptions) []int {
	workers := opts.workers()
	if workers <= 1 {
		return nil
	}
	d := 1
	for 1<<d < 2*workers && d < opts.maxCubeVars() {
		d++
	}
	return pickCubeVars(s, projection, d)
}

// extractModel reads the solver's current model projected onto the
// given variables.
func extractModel(s *Solver, projection []int) Model {
	m := make(Model, len(projection))
	for i, v := range projection {
		m[i] = s.Value(v)
	}
	return m
}

// ParallelEnumerate enumerates the models of s projected onto
// projection with a pool of cloned solvers, each exhausting a disjoint
// cube of the search space. Unlike EnumerateModels it does not consume
// s: workers solve on clones and s itself is left at decision level 0
// with no blocking clauses added.
//
// The returned models are sorted canonically (lexicographically), so
// for a full enumeration (limit <= 0) the result is identical to a
// serial enumeration regardless of worker count. With limit > 0 each
// cube stops after its first limit models, so the merged result is a
// sorted subset of the full model set that is deterministic for a
// given worker count but may differ between worker counts (different
// cube splits stop at different models).
//
// The status is Unsat when the space was exhausted, Sat when the limit
// truncated it, and Unknown when any cube ran out of conflict budget.
func ParallelEnumerate(s *Solver, projection []int, limit int, opts ParallelOptions) ([]Model, Status) {
	defer s.Obs.StartSpan(SpanParallelEnum).End()
	// base is a private level-0 snapshot: workers clone it concurrently,
	// and cloning a solver at decision level 0 only reads it.
	base := s.Clone()
	cubeVars := cubePlan(base, projection, opts)
	if len(cubeVars) == 0 {
		models, st := serialEnumerate(base, projection, limit)
		if st == Unknown {
			return nil, Unknown
		}
		return models, st
	}
	nCubes := 1 << len(cubeVars)
	s.Obs.Counter(MetricCubes).Add(int64(nCubes))
	workers := opts.workers()
	if workers > nCubes {
		workers = nCubes
	}

	type cubeResult struct {
		models []Model
		st     Status
	}
	results := make([]cubeResult, nCubes)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cl := base.Clone()
				for _, l := range cubeLits(cubeVars, i) {
					cl.AddClause(l)
				}
				models, st := serialEnumerate(cl, projection, limit)
				results[i] = cubeResult{models: models, st: st}
			}
		}()
	}
	for i := 0; i < nCubes; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var all []Model
	exhausted := true
	for _, r := range results {
		all = append(all, r.models...)
		if r.st == Unknown {
			return nil, Unknown
		}
		if r.st == Sat {
			exhausted = false // cube hit its local limit
		}
	}
	SortModels(all)
	if limit > 0 && len(all) > limit {
		all = all[:limit]
		exhausted = false
	}
	if exhausted {
		return all, Unsat
	}
	return all, Sat
}

// serialEnumerate drains models from a private solver into canonically
// sorted Model values (the solver is consumed).
func serialEnumerate(s *Solver, projection []int, limit int) ([]Model, Status) {
	var out []Model
	// The budget/interrupt distinction is folded into the Unknown
	// status here; the cube drivers only need exhausted-or-not.
	_, st, _ := s.EnumerateModels(projection, limit, func(map[int]bool) bool {
		out = append(out, extractModel(s, projection))
		return true
	})
	SortModels(out)
	return out, st
}

// ParallelFirst searches for one model of s projected onto projection,
// racing cloned solvers over disjoint cubes and cancelling siblings as
// soon as the winner is decided. The result is deterministic for a
// deterministic per-cube solver: the model of the lowest-indexed
// satisfiable cube is returned, because a cube's siblings are only
// interrupted when a lower-indexed cube has already produced a model.
// Like ParallelEnumerate it does not consume s.
//
// Status Unsat means every cube was refuted (an UNSAT proof of the
// whole instance); Unknown means no model was found and at least one
// cube exhausted its conflict budget.
func ParallelFirst(s *Solver, projection []int, opts ParallelOptions) (Model, Status) {
	defer s.Obs.StartSpan(SpanParallelFirst).End()
	base := s.Clone()
	cubeVars := cubePlan(base, projection, opts)
	if len(cubeVars) == 0 {
		st := base.Solve()
		if st != Sat {
			return nil, st
		}
		return extractModel(base, projection), Sat
	}
	nCubes := 1 << len(cubeVars)
	s.Obs.Counter(MetricCubes).Add(int64(nCubes))
	interrupts := s.Obs.Counter(MetricCubeInterrupts)
	workers := opts.workers()
	if workers > nCubes {
		workers = nCubes
	}

	var (
		mu       sync.Mutex
		active   = map[int]*Solver{} // cube -> running clone
		statuses = make([]Status, nCubes)
		models   = make([]Model, nCubes)
		bestSat  = -1 // lowest satisfiable cube seen so far
		budgeted = false
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				mu.Lock()
				skip := bestSat >= 0 && i > bestSat
				var cl *Solver
				if !skip {
					cl = base.Clone()
					active[i] = cl
				}
				mu.Unlock()
				if skip {
					continue // a lower cube already won
				}
				for _, l := range cubeLits(cubeVars, i) {
					cl.AddClause(l)
				}
				st := cl.Solve()
				mu.Lock()
				delete(active, i)
				statuses[i] = st
				switch st {
				case Sat:
					models[i] = extractModel(cl, projection)
					if bestSat < 0 || i < bestSat {
						bestSat = i
						// Cancel siblings exploring cubes the winner
						// supersedes; lower cubes keep running.
						for j, sib := range active {
							if j > i {
								sib.Interrupt()
								interrupts.Inc()
							}
						}
					}
				case Unknown:
					if !cl.Interrupted() {
						budgeted = true // genuine budget exhaustion
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < nCubes; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if bestSat >= 0 {
		return models[bestSat], Sat
	}
	if budgeted {
		return nil, Unknown
	}
	return nil, Unsat
}
