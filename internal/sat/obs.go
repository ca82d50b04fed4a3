package sat

import (
	"time"

	"repro/internal/obs"
)

// Metric names exported by the solver. Counters are deterministic for
// a deterministic search (they mirror Stats exactly); the histograms
// carry wall-clock latencies and are not.
const (
	MetricDecisions     = "sat.decisions"
	MetricPropagations  = "sat.propagations"
	MetricConflicts     = "sat.conflicts"
	MetricRestarts      = "sat.restarts"
	MetricLearned       = "sat.learned"
	MetricLearnedPruned = "sat.learned_pruned"
	MetricLearnedLits   = "sat.learned_lits"
	MetricXorProps      = "sat.xor_props"
	MetricSolveSat      = "sat.solve.sat"
	MetricSolveUnsat    = "sat.solve.unsat"
	MetricSolveUnknown  = "sat.solve.unknown"
	MetricSolveNS       = "sat.solve.ns"
	MetricSolveCalls    = "sat.solve.calls"
	MetricEnumModels    = "sat.enumerate.models"
	// Incremental-solving metrics: SolveAssuming calls, the level-0
	// units the in-search Gauss matrix builds derived, and a gauge of
	// learned clauses retained across calls in a reused solver.
	MetricAssumptionSolves = "sat.solve.assuming"
	MetricGaussUnits       = "sat.gauss.units"
	MetricLearnedRetained  = "sat.learned.retained"

	// In-search Gauss metrics: implications and conflicts extracted from
	// the live matrix mid-search, and matrix (re)builds at level 0.
	MetricGaussInSearchProps     = "sat.gauss.insearch.props"
	MetricGaussInSearchConflicts = "sat.gauss.insearch.conflicts"
	MetricGaussMatrixBuilds      = "sat.gauss.insearch.builds"

	// Parallel-driver metrics: cube fan-out, sibling cancellations and
	// whole-call latency of the cube-split engines.
	MetricCubes          = "sat.parallel.cubes"
	MetricCubeInterrupts = "sat.parallel.interrupts"
	SpanParallelEnum     = "sat.parallel.enumerate"
	SpanParallelFirst    = "sat.parallel.first"
)

// DeterministicCounters lists the solver counters that must be
// identical across repeated runs of the same seeded instance and
// across the serial vs 1-worker-parallel drivers — the cross-oracle
// invariant the metrics-driven test suite asserts on. Latency
// histograms and call counters are deliberately absent.
var DeterministicCounters = []string{
	MetricDecisions,
	MetricPropagations,
	MetricConflicts,
	MetricRestarts,
	MetricLearned,
	MetricLearnedPruned,
	MetricLearnedLits,
	MetricXorProps,
}

// obsInstruments caches the resolved instrument pointers for one
// registry, so the per-Solve flush does no map lookups.
type obsInstruments struct {
	reg *obs.Registry

	decisions     *obs.Counter
	propagations  *obs.Counter
	conflicts     *obs.Counter
	restarts      *obs.Counter
	learned       *obs.Counter
	learnedPruned *obs.Counter
	learnedLits   *obs.Counter
	xorProps      *obs.Counter

	solveSat     *obs.Counter
	solveUnsat   *obs.Counter
	solveUnknown *obs.Counter
	solveCalls   *obs.Counter
	solveNS      *obs.Histogram

	assumptionSolves *obs.Counter
	gaussUnits       *obs.Counter
	learnedRetained  *obs.Gauge

	gaussInSearchProps     *obs.Counter
	gaussInSearchConflicts *obs.Counter
	gaussMatrixBuilds      *obs.Counter
}

// instruments returns the cached instrument set for the solver's
// current registry, rebuilding it when SetObserver changed the
// registry. Must only be called with s.Obs != nil.
func (s *Solver) instruments() *obsInstruments {
	if s.obsCache != nil && s.obsCache.reg == s.Obs {
		return s.obsCache
	}
	r := s.Obs
	s.obsCache = &obsInstruments{
		reg:           r,
		decisions:     r.Counter(MetricDecisions),
		propagations:  r.Counter(MetricPropagations),
		conflicts:     r.Counter(MetricConflicts),
		restarts:      r.Counter(MetricRestarts),
		learned:       r.Counter(MetricLearned),
		learnedPruned: r.Counter(MetricLearnedPruned),
		learnedLits:   r.Counter(MetricLearnedLits),
		xorProps:      r.Counter(MetricXorProps),
		solveSat:      r.Counter(MetricSolveSat),
		solveUnsat:    r.Counter(MetricSolveUnsat),
		solveUnknown:  r.Counter(MetricSolveUnknown),
		solveCalls:    r.Counter(MetricSolveCalls),
		solveNS:       r.Histogram(MetricSolveNS),

		assumptionSolves: r.Counter(MetricAssumptionSolves),
		gaussUnits:       r.Counter(MetricGaussUnits),
		learnedRetained:  r.Gauge(MetricLearnedRetained),

		gaussInSearchProps:     r.Counter(MetricGaussInSearchProps),
		gaussInSearchConflicts: r.Counter(MetricGaussInSearchConflicts),
		gaussMatrixBuilds:      r.Counter(MetricGaussMatrixBuilds),
	}
	return s.obsCache
}

// flushObs publishes the counter deltas accumulated between before and
// the current Stats, plus the call's latency and outcome. The window
// is Solve-entry to Solve-exit, so construction-time propagations
// (clause addition) stay out of the published counters — that is what
// makes the serial and cloned-worker paths publish identical numbers.
func (s *Solver) flushObs(before Stats, d time.Duration, st Status) {
	in := s.instruments()
	after := s.Stats
	in.decisions.Add(after.Decisions - before.Decisions)
	in.propagations.Add(after.Propagations - before.Propagations)
	in.conflicts.Add(after.Conflicts - before.Conflicts)
	in.restarts.Add(after.Restarts - before.Restarts)
	in.learned.Add(after.Learned - before.Learned)
	in.learnedPruned.Add(after.LearnedPruned - before.LearnedPruned)
	in.learnedLits.Add(after.LearnedLits - before.LearnedLits)
	in.xorProps.Add(after.XorProps - before.XorProps)
	in.assumptionSolves.Add(after.AssumptionSolves - before.AssumptionSolves)
	in.gaussUnits.Add(after.GaussUnits - before.GaussUnits)
	in.gaussInSearchProps.Add(after.GaussInSearchProps - before.GaussInSearchProps)
	in.gaussInSearchConflicts.Add(after.GaussInSearchConflicts - before.GaussInSearchConflicts)
	in.gaussMatrixBuilds.Add(after.GaussMatrixBuilds - before.GaussMatrixBuilds)
	// The learned-clause DB carried into the NEXT call of a reused
	// solver is exactly what survives this one.
	in.learnedRetained.Set(int64(len(s.learnts)))
	in.solveCalls.Inc()
	in.solveNS.ObserveDuration(d)
	switch st {
	case Sat:
		in.solveSat.Inc()
	case Unsat:
		in.solveUnsat.Inc()
	default:
		in.solveUnknown.Inc()
	}
}
