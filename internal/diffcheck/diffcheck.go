// Package diffcheck is the trust layer of the reconstruction pipeline:
// a differential-testing and fault-injection harness that checks every
// Signal Reconstruction oracle in the repository against the others and
// asserts that corrupted timeprint logs fail closed everywhere.
//
// The paper's postmortem story (Sections 4–5) rests on the
// reconstructor being exact. This repository has five independent ways
// to answer a Signal Reconstruction query — the algebraic syndrome
// decoder (internal/decode, k <= 4), the serial CDCL path, the
// incremental assumption-based session solver, the cube-split parallel
// portfolio, and GF(2) brute force — plus exhaustive concretization
// for tiny m. They share almost no code below
// the encoding, so agreement across all pairs on a randomized corpus is
// strong evidence of correctness, and any disagreement is distilled
// into a self-contained repro (CaseSpec) that Replay re-runs without
// the rest of the corpus.
//
// Cases with k <= 4 also run a constrained leg under a window drawn
// from the case seed: the dispatcher, which must answer them on the
// decode route, the serial SAT path, which encodes the window, and the
// decoder's candidates filtered by the window's Holds must agree.
//
// The companion fault injector (fault.go) corrupts stored logs — TP bit
// flips, k off-by-one, dropped / duplicated / reordered entries, width
// mismatches, truncated serializations — and asserts every layer
// rejects the damage with a typed, wrapped error (never a panic, never
// a silently wrong signal), and that trace.Compare still pinpoints the
// corrupted trace-cycle.
//
// The harness is deterministic: a (seed, cases, sweep) triple always
// generates the same corpus, so a divergence reported from CI is
// reproducible locally with `timeprint selfcheck -seed ... -cases ...`.
package diffcheck

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/obs"
)

// Geometry is one point of the (m, b, scheme) sweep.
type Geometry struct {
	// M is the trace-cycle length, B the timestamp width.
	M, B int
	// D is the linear-independence depth requested from the generator.
	D int
	// Scheme selects the timestamp generator: "incremental", "random",
	// "binary" (weak, LI-2 only), or "one-hot".
	Scheme string
	// KMax caps the change count drawn for this geometry; 0 means no
	// per-geometry cap (the Config cap still applies). The cap keeps the
	// expected solution count C(m,k)/2^b small enough that exhaustive
	// enumeration by every oracle stays fast — ambiguity explodes
	// combinatorially on weak (small-b) encodings.
	KMax int
}

func (g Geometry) String() string {
	return fmt.Sprintf("%s m=%d b=%d d=%d", g.Scheme, g.M, g.B, g.D)
}

// DefaultSweep covers the regimes where the oracles behave differently:
// small m (exhaustive concretization applies), weak encodings (massive
// ambiguity, multi-pair collisions in the decoder's pairwise index),
// and LI-4 geometries near the paper's operating point. Per-geometry
// KMax keeps every case's full solution set in the low hundreds.
func DefaultSweep() []Geometry {
	return []Geometry{
		{M: 12, B: 4, D: 2, Scheme: "binary", KMax: 3},
		{M: 14, B: 6, D: 2, Scheme: "incremental", KMax: 4},
		{M: 16, B: 9, D: 4, Scheme: "incremental"},
		{M: 16, B: 10, D: 4, Scheme: "random"},
		{M: 24, B: 5, D: 2, Scheme: "binary", KMax: 3},
		{M: 32, B: 11, D: 4, Scheme: "incremental", KMax: 5},
		{M: 48, B: 12, D: 4, Scheme: "incremental", KMax: 4},
		{M: 48, B: 14, D: 4, Scheme: "random", KMax: 4},
		{M: 64, B: 13, D: 4, Scheme: "incremental", KMax: 4},
	}
}

// Config parameterizes a differential run.
type Config struct {
	// Seed makes the whole corpus deterministic.
	Seed int64
	// Cases is the number of (encoding, entry) cases, spread round-robin
	// over the sweep; <= 0 means 200.
	Cases int
	// Sweep lists the geometries to draw cases from; nil means
	// DefaultSweep.
	Sweep []Geometry
	// Workers lists the worker counts the parallel oracle runs with;
	// nil means {2, 4}.
	Workers []int
	// MaxK caps the change count of generated signals; <= 0 means 6.
	// Values <= decode.MaxK exercise the algebraic decoder, larger ones
	// the SAT-only regime.
	MaxK int
	// Obs, when non-nil, receives the SAT oracles' solver and presolve
	// metrics (the CLI's `selfcheck -metrics` path); nil costs nothing.
	Obs *obs.Registry
}

func (c Config) cases() int {
	if c.Cases <= 0 {
		return 200
	}
	return c.Cases
}

func (c Config) sweep() []Geometry {
	if len(c.Sweep) == 0 {
		return DefaultSweep()
	}
	return c.Sweep
}

func (c Config) workerCounts() []int {
	if len(c.Workers) == 0 {
		return []int{2, 4}
	}
	return c.Workers
}

func (c Config) maxK() int {
	if c.MaxK <= 0 {
		return 6
	}
	return c.MaxK
}

// CaseSpec identifies one (encoding, entry) case completely: the
// geometry, the seed that regenerates the encoding (random scheme), and
// the logged entry with the planted ground-truth signal. It is the
// minimized repro attached to a Divergence — Replay re-runs it in
// isolation.
type CaseSpec struct {
	Geometry
	// EncSeed reproduces the encoding for the "random" scheme (the
	// other schemes are deterministic functions of the geometry).
	EncSeed int64
	// K is the change count of the planted signal.
	K int
	// TruthChanges are the planted change cycles; the case's log entry
	// is their abstraction under the encoding.
	TruthChanges []int
	// TP is the logged timeprint, MSB-first binary (as printed by
	// bitvec.Vector.String), kept so a repro is self-describing even
	// without regenerating the truth signal.
	TP string
}

func (cs CaseSpec) String() string {
	return fmt.Sprintf("%s seed=%d k=%d changes=%v tp=%s", cs.Geometry, cs.EncSeed, cs.K, cs.TruthChanges, cs.TP)
}

// Encoding regenerates the case's encoding.
func (cs CaseSpec) Encoding() (*encoding.Encoding, error) {
	return buildEncoding(cs.Geometry, cs.EncSeed)
}

// Entry regenerates the case's log entry from the planted signal.
func (cs CaseSpec) Entry() (core.LogEntry, error) {
	enc, err := cs.Encoding()
	if err != nil {
		return core.LogEntry{}, err
	}
	return core.Log(enc, core.SignalFromChanges(cs.M, cs.TruthChanges...)), nil
}

func buildEncoding(g Geometry, seed int64) (*encoding.Encoding, error) {
	switch g.Scheme {
	case "incremental":
		return encoding.Incremental(g.M, g.B, g.D)
	case "random":
		return encoding.RandomConstrained(g.M, g.B, g.D, seed, 0)
	case "binary":
		return encoding.Binary(g.M), nil
	case "one-hot":
		return encoding.OneHot(g.M), nil
	default:
		return nil, fmt.Errorf("diffcheck: unknown scheme %q", g.Scheme)
	}
}

// Divergence reports two oracles disagreeing on one case. It implements
// error so a run can surface the first divergence directly.
type Divergence struct {
	Case CaseSpec
	// A and B name the disagreeing oracles.
	A, B string
	// OnlyA and OnlyB list change-sets found by exactly one of the two
	// (each rendered as the candidate's change cycles).
	OnlyA, OnlyB []string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("diffcheck: oracles %s and %s disagree on [%s]: only-%s=%v only-%s=%v",
		d.A, d.B, d.Case, d.A, d.OnlyA, d.B, d.OnlyB)
}

// Report summarizes a differential run.
type Report struct {
	// Cases is the number of (encoding, entry) cases exercised.
	Cases int
	// Comparisons counts oracle-pair set comparisons performed;
	// WindowComparisons counts those of them made under a case's window
	// constraint (see runWindowCase).
	Comparisons, WindowComparisons int
	// PerOracle counts how many cases each oracle ran on.
	PerOracle map[string]int
	// TruthMisses counts cases where an oracle's solution set did not
	// contain the planted signal (always a bug; also reported as a
	// divergence against the synthetic "truth" oracle).
	TruthMisses int
	// Divergences lists every disagreement found.
	Divergences []*Divergence
}

// Summary renders a one-paragraph human-readable report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diffcheck: %d cases, %d oracle-pair comparisons (%d under a window), %d divergences, %d truth misses\n",
		r.Cases, r.Comparisons, r.WindowComparisons, len(r.Divergences), r.TruthMisses)
	names := make([]string, 0, len(r.PerOracle))
	for n := range r.PerOracle {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-16s %d cases\n", n, r.PerOracle[n])
	}
	return b.String()
}

// Ok reports whether the run found full agreement.
func (r *Report) Ok() bool { return len(r.Divergences) == 0 && r.TruthMisses == 0 }

// Run executes the differential corpus described by cfg. An error is
// returned only for harness-level failures (an unsatisfiable geometry,
// an oracle returning an unexpected typed error); disagreements between
// oracles are collected in the report, not returned as errors.
func Run(cfg Config) (*Report, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sweep := cfg.sweep()
	oracles := buildOracles(cfg.workerCounts(), cfg.Obs)
	rep := &Report{PerOracle: map[string]int{}}

	for n := 0; n < cfg.cases(); n++ {
		g := sweep[n%len(sweep)]
		kCap := min(cfg.maxK(), g.M)
		if g.KMax > 0 {
			kCap = min(kCap, g.KMax)
		}
		cs := CaseSpec{
			Geometry: g,
			EncSeed:  rng.Int63(),
			K:        rng.Intn(kCap + 1),
		}
		enc, err := buildEncoding(g, cs.EncSeed)
		if err != nil {
			return nil, fmt.Errorf("diffcheck: case %d [%s]: %w", n, g, err)
		}
		cs.TruthChanges = rng.Perm(g.M)[:cs.K]
		sort.Ints(cs.TruthChanges)
		truth := core.SignalFromChanges(g.M, cs.TruthChanges...)
		entry := core.Log(enc, truth)
		cs.TP = entry.TP.String()

		if err := runCase(rep, oracles, cs, enc, entry, truth); err != nil {
			return nil, fmt.Errorf("diffcheck: case %d: %w", n, err)
		}
		if err := runWindowCase(rep, cs, enc, entry, truth, cfg.Obs); err != nil {
			return nil, fmt.Errorf("diffcheck: case %d: %w", n, err)
		}
		rep.Cases++
	}
	return rep, nil
}

// Replay re-runs a single reported case through every oracle — the
// repro path for a divergence found in CI.
func Replay(cs CaseSpec, workers []int) (*Report, error) {
	enc, err := cs.Encoding()
	if err != nil {
		return nil, err
	}
	truth := core.SignalFromChanges(cs.M, cs.TruthChanges...)
	entry := core.Log(enc, truth)
	if got := entry.TP.String(); cs.TP != "" && got != cs.TP {
		return nil, fmt.Errorf("diffcheck: replay of [%s] regenerated tp=%s", cs, got)
	}
	rep := &Report{PerOracle: map[string]int{}}
	if len(workers) == 0 {
		workers = Config{}.workerCounts()
	}
	if err := runCase(rep, buildOracles(workers, nil), cs, enc, entry, truth); err != nil {
		return nil, err
	}
	if err := runWindowCase(rep, cs, enc, entry, truth, nil); err != nil {
		return nil, err
	}
	rep.Cases = 1
	return rep, nil
}

// result is one oracle's answer to a case as a canonical set.
type result struct {
	name string
	set  map[string]core.Signal // canonical key -> candidate
}

// runCase pushes one case through every applicable oracle and compares
// all pairs of canonical solution sets.
func runCase(rep *Report, oracles []oracle, cs CaseSpec, enc *encoding.Encoding, entry core.LogEntry, truth core.Signal) error {
	var results []result
	for _, o := range oracles {
		if !o.applies(cs) {
			continue
		}
		sigs, err := o.run(enc, entry)
		if err != nil {
			return fmt.Errorf("oracle %s on [%s]: %w", o.name, cs, err)
		}
		rep.PerOracle[o.name]++
		results = append(results, collect(rep, cs, o.name, sigs, truth, true))
	}
	rep.Comparisons += comparePairs(rep, cs, results)
	return nil
}

// collect canonicalizes one oracle's answer, reporting duplicate
// signals and, when the planted signal is a candidate (wantTruth), its
// absence.
func collect(rep *Report, cs CaseSpec, name string, sigs []core.Signal, truth core.Signal, wantTruth bool) result {
	set := make(map[string]core.Signal, len(sigs))
	for _, s := range sigs {
		set[s.Vector().Key()] = s
	}
	if len(set) != len(sigs) {
		rep.Divergences = append(rep.Divergences, &Divergence{
			Case: cs, A: name, B: name,
			OnlyA: []string{"duplicate signals in result"},
		})
	}
	if _, ok := set[truth.Vector().Key()]; wantTruth && !ok {
		rep.TruthMisses++
		rep.Divergences = append(rep.Divergences, &Divergence{
			Case: cs, A: name, B: "truth",
			OnlyB: []string{fmt.Sprint(truth.Changes())},
		})
	}
	return result{name: name, set: set}
}

// comparePairs compares every pair of results, reports each
// disagreement, and returns the number of comparisons. All pairs: with
// <= 6 oracles and key-set compares this is cheap and catches a faulty
// pair even if both disagree with the rest in the same direction.
func comparePairs(rep *Report, cs CaseSpec, results []result) int {
	n := 0
	for i := 0; i < len(results); i++ {
		for j := i + 1; j < len(results); j++ {
			n++
			onlyA := diffSets(results[i].set, results[j].set)
			onlyB := diffSets(results[j].set, results[i].set)
			if len(onlyA) > 0 || len(onlyB) > 0 {
				rep.Divergences = append(rep.Divergences, &Divergence{
					Case: cs, A: results[i].name, B: results[j].name,
					OnlyA: onlyA, OnlyB: onlyB,
				})
			}
		}
	}
	return n
}

// diffSets lists the candidates present in a but not b, rendered as
// change-cycle lists for the divergence report.
func diffSets(a, b map[string]core.Signal) []string {
	var out []string
	for k, s := range a {
		if _, ok := b[k]; !ok {
			out = append(out, fmt.Sprint(s.Changes()))
		}
	}
	sort.Strings(out)
	return out
}
