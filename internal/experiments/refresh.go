// Package experiments implements the paper's two evaluation scenarios
// end-to-end so that tests, benchmarks, the tprbench tool and the
// examples all exercise one code path:
//
//   - Section 5.2.1: CAN bus communication — who is responsible for a
//     missed deadline, settled from logged timeprints.
//   - Section 5.2.2: temperature-compensated refresh effects detection
//     on a LEON3-style SoC, found by comparing hardware timeprints
//     against an RTL-simulation twin.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/properties"
	"repro/internal/reconstruct"
	"repro/internal/soc"
	"repro/internal/sram"
	"repro/internal/trace"
)

// RefreshConfig parameterizes the Section 5.2.2 run.
type RefreshConfig struct {
	// M and B are the trace-cycle length and timeprint width (the paper
	// uses m = 1024; small test runs may shrink this).
	M, B int
	// TraceCycles is how many trace-cycles to run.
	TraceCycles int
	// AmbientC is the environment temperature of the "hardware" run.
	AmbientC float64
	// SimWaitStates configures the simulation twin (the hardware uses
	// 1); 2 reproduces the misconfigured Gaisler SRAM model.
	SimWaitStates int
	// Period and BurstWords shape the software image.
	Period     uint16
	BurstWords int
	// Parallel bounds the worker pool used to run the SoC simulations
	// and to localize mismatching trace-cycles concurrently (each
	// trace-cycle's diagnosis is an independent SAT query). <= 1 runs
	// everything serially, exactly as the paper's single-threaded tool.
	Parallel int
	// Obs, when non-nil, receives the experiment's metrics (pool
	// utilization, per-trace-cycle localization spans) and is threaded
	// through the stores and every reconstruction query.
	Obs *obs.Registry
}

// DefaultRefreshConfig returns the configuration used throughout the
// reproduction: m = 1024 as in the paper.
func DefaultRefreshConfig(ambientC float64) RefreshConfig {
	return RefreshConfig{
		M: 1024, B: 24, TraceCycles: 40, AmbientC: ambientC,
		SimWaitStates: 1, Period: 100, BurstWords: 100,
	}
}

// hardwareMem returns the physical device model at the given ambient.
func hardwareMem(ambientC float64) sram.Config {
	cfg := sram.DefaultConfig(ambientC)
	cfg.BaseIntervalCycles = 1200
	cfg.MinIntervalCycles = 250
	cfg.IntervalSlopeCyclesPerC = 16
	cfg.RefreshCycles = 13
	cfg.HeatPerAccessC = 0.25
	return cfg
}

// simulationMem returns the idealized RTL-simulation device: no
// refresh, no thermal drift.
func simulationMem(waitStates int) sram.Config {
	return sram.Config{WaitStates: waitStates, CoolingPerCycle: 1}
}

// Localization is one diagnosed refresh delay.
type Localization struct {
	// TraceCycle is the mismatching trace-cycle.
	TraceCycle int
	// DelayedChangeCycles are the clock-cycles (within the trace-cycle)
	// whose change instances the reference trace expected but that
	// happened one cycle later on the hardware. One entry for a single
	// collision; two when the single-delay property was UNSAT and the
	// two-delay fallback resolved the trace-cycle.
	DelayedChangeCycles []int
	// Candidates is how many delay variants were consistent with the
	// logged timeprint (1 means unique diagnosis).
	Candidates int
	// Verified reports whether the diagnosed signal matches the
	// hardware's actual change trace (ground truth available only in
	// simulation).
	Verified bool
}

// DelayedChangeCycle returns the single diagnosed cycle, or -1 when
// the diagnosis is absent or involves several delays.
func (l Localization) DelayedChangeCycle() int {
	if len(l.DelayedChangeCycles) == 1 {
		return l.DelayedChangeCycles[0]
	}
	return -1
}

// RefreshResult is the outcome of one Section 5.2.2 run.
type RefreshResult struct {
	Config RefreshConfig

	// KMismatchesBuggy counts trace-cycles whose change counts differ
	// between hardware and the misconfigured simulation (the
	// wait-state-bug signature). Zero after the fix.
	KMismatchesBuggy int
	// KMismatchesFixed counts k mismatches against the fixed
	// simulation (expected 0: "k became exactly the same").
	KMismatchesFixed int
	// TPMismatches lists trace-cycles where timeprints differ with
	// equal k against the fixed simulation (the refresh signature).
	TPMismatches []int
	// FirstMismatch is the earliest such trace-cycle, -1 if none.
	FirstMismatch int
	// SteadyFrom is the first trace-cycle after the boot burst;
	// FirstSteadyMismatch is the earliest TP mismatch from there on
	// (-1 if none). The burst saturates the memory, so a refresh there
	// collides at any temperature; the temperature-dependent onset the
	// paper reports is a steady-state effect.
	SteadyFrom          int
	FirstSteadyMismatch int
	// Localizations diagnoses each TP mismatch via the delayed-variant
	// property.
	Localizations []Localization
	// Collisions is the hardware's ground-truth refresh-collision
	// count; FinalTempC its final die temperature.
	Collisions int64
	FinalTempC float64
}

// RunRefresh executes the experiment: the hardware run, the buggy
// simulation, the fixed simulation, log comparison and delay
// localization.
func RunRefresh(cfg RefreshConfig) (*RefreshResult, error) {
	defer cfg.Obs.StartSpan(SpanRefresh).End()
	enc, err := encoding.Incremental(cfg.M, cfg.B, 4)
	if err != nil {
		return nil, err
	}
	prog := soc.SensorProgram(cfg.BurstWords, cfg.Period)
	cycles := int64(cfg.TraceCycles) * int64(cfg.M)

	run := func(mem sram.Config) (*soc.System, *trace.Store, error) {
		sys, err := soc.Build(soc.Config{
			Program: prog, Mem: mem, Enc: enc, ClockHz: 50e6,
		})
		if err != nil {
			return nil, nil, err
		}
		sys.Run(cycles)
		st, err := sys.StoreObserved("addr", cfg.Obs)
		if err != nil {
			return nil, nil, err
		}
		return sys, st, nil
	}

	// The three SoC runs (hardware, buggy sim, fixed sim) are
	// independent simulations; with a parallel budget they execute
	// concurrently.
	mems := []sram.Config{hardwareMem(cfg.AmbientC), simulationMem(2), simulationMem(cfg.SimWaitStates)}
	syss := make([]*soc.System, len(mems))
	stores := make([]*trace.Store, len(mems))
	errs := make([]error, len(mems))
	runPoolMetered(len(mems), cfg.Parallel, cfg.Obs, PoolName, func(i int) {
		syss[i], stores[i], errs[i] = run(mems[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	hwSys, hwSt := syss[0], stores[0]
	buggySt := stores[1]
	simSys, fixedSt := syss[2], stores[2]

	res := &RefreshResult{Config: cfg, FirstMismatch: -1, FirstSteadyMismatch: -1}
	// A burst word costs ~13-15 cycles; 20 is a safe upper bound.
	res.SteadyFrom = cfg.BurstWords*20/cfg.M + 1
	res.Collisions = hwSys.Mem.Stats().Collisions
	res.FinalTempC = hwSys.Mem.TemperatureC()

	mmBuggy, err := trace.Compare(hwSt, buggySt)
	if err != nil {
		return nil, err
	}
	for _, m := range mmBuggy {
		if m.KDiffers {
			res.KMismatchesBuggy++
		}
	}
	mmFixed, err := trace.Compare(hwSt, fixedSt)
	if err != nil {
		return nil, err
	}
	refs := simSys.ReferenceSignals()
	hwRefs := hwSys.ReferenceSignals()
	for _, m := range mmFixed {
		if m.KDiffers {
			res.KMismatchesFixed++
			continue
		}
		res.TPMismatches = append(res.TPMismatches, m.TraceCycle)
		if res.FirstMismatch == -1 || m.TraceCycle < res.FirstMismatch {
			res.FirstMismatch = m.TraceCycle
		}
		if m.TraceCycle >= res.SteadyFrom &&
			(res.FirstSteadyMismatch == -1 || m.TraceCycle < res.FirstSteadyMismatch) {
			res.FirstSteadyMismatch = m.TraceCycle
		}
	}
	// Each TP mismatch is localized by an independent SAT query over
	// its own trace-cycle; the pool fans them out and the results land
	// in trace-cycle order regardless of scheduling.
	locs := make([]Localization, len(res.TPMismatches))
	locErrs := make([]error, len(res.TPMismatches))
	runPoolMetered(len(res.TPMismatches), cfg.Parallel, cfg.Obs, PoolName, func(i int) {
		locs[i], locErrs[i] = localizeDelay(enc, hwSt, refs, hwRefs, res.TPMismatches[i], cfg.Obs)
	})
	for _, err := range locErrs {
		if err != nil {
			return nil, err
		}
	}
	if len(locs) > 0 {
		res.Localizations = locs
	}
	return res, nil
}

// localizeDelay reconstructs the hardware's trace-cycle signal under
// the property "the reference trace with exactly one change instance
// delayed by one clock-cycle" (Section 5.2.2) and reports which change
// it was. When no single delay explains the timeprint (two collisions
// landed in one trace-cycle), it falls back to the two-delay variant
// set.
func localizeDelay(enc *encoding.Encoding, hwSt *trace.Store, refs, hwRefs []core.Signal, tc int, reg *obs.Registry) (Localization, error) {
	defer reg.StartSpan(SpanLocalize).End()
	entry, err := hwSt.Entry(tc)
	if err != nil {
		return Localization{}, err
	}
	ref := refs[tc]
	loc := Localization{TraceCycle: tc}

	for _, prop := range []properties.OneOfSignals{
		properties.DelayedVariants(ref, 1),
		twoDelayVariants(ref, 1),
	} {
		if len(prop.Candidates) == 0 {
			continue
		}
		rec, err := reconstruct.New(enc, entry, []reconstruct.Constraint{prop}, reconstruct.Options{Obs: reg})
		if err != nil {
			return loc, err
		}
		cands, exhausted, err := rec.EnumerateStrict(0)
		if err != nil {
			return loc, err
		}
		if !exhausted {
			return loc, fmt.Errorf("experiments: localization enumeration not exhausted")
		}
		if len(cands) == 0 {
			continue
		}
		loc.Candidates = len(cands)
		cand := cands[0]
		for _, c := range ref.Changes() {
			if !cand.Changed(c) {
				loc.DelayedChangeCycles = append(loc.DelayedChangeCycles, c)
			}
		}
		loc.Verified = cand.Equal(hwRefs[tc])
		return loc, nil
	}
	return loc, nil // more than two collisions; left undiagnosed
}

// maxTwoDelayChanges bounds the two-delay fallback: its candidate set
// is C(k, 2) complete assignments, each costing O(k) clauses, which is
// prohibitive for the dense boot-burst trace-cycles (and those are
// whole-suffix shifts, not two isolated delays, anyway).
const maxTwoDelayChanges = 40

// twoDelayVariants builds every variant of ref in which two distinct
// change instances are each delayed by delta cycles onto quiet cycles.
// It returns an empty candidate set for trace-cycles denser than
// maxTwoDelayChanges.
func twoDelayVariants(ref core.Signal, delta int) properties.OneOfSignals {
	m := ref.M()
	changes := ref.Changes()
	if len(changes) > maxTwoDelayChanges {
		return properties.OneOfSignals{Name: "TwoDelayVariants(skipped: too dense)"}
	}
	var cands []core.Signal
	for i := 0; i < len(changes); i++ {
		for j := i + 1; j < len(changes); j++ {
			a, b := changes[i], changes[j]
			na, nb := a+delta, b+delta
			if na >= m || nb >= m || na == b {
				continue
			}
			v := ref.Vector()
			v.Flip(a)
			if v.Get(na) {
				continue // target occupied (after the first move)
			}
			v.Flip(na)
			if !v.Get(b) || v.Get(nb) {
				continue
			}
			v.Flip(b)
			v.Flip(nb)
			cands = append(cands, core.SignalFromVector(v))
		}
	}
	return properties.OneOfSignals{
		Name:       fmt.Sprintf("TwoDelayVariants(delta=%d, refK=%d)", delta, ref.K()),
		Candidates: cands,
	}
}

// RefreshSweep runs the experiment across ambient temperatures and
// returns the first-mismatch onset per temperature — the paper's
// "mismatch started from as early as the 3rd to as late as the 28th
// trace-cycle" observation.
func RefreshSweep(base RefreshConfig, ambients []float64) ([]*RefreshResult, error) {
	out := make([]*RefreshResult, len(ambients))
	errs := make([]error, len(ambients))
	// Fan the ambients out across the pool; each inner run then stays
	// serial (inner.Parallel = 1) so the total goroutine count is
	// bounded by base.Parallel rather than its square.
	runPoolMetered(len(ambients), base.Parallel, base.Obs, PoolName, func(i int) {
		cfg := base
		cfg.AmbientC = ambients[i]
		if base.Parallel > 1 {
			cfg.Parallel = 1
		}
		r, err := RunRefresh(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: ambient %.0f: %w", ambients[i], err)
			return
		}
		out[i] = r
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
