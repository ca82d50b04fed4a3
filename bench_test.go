// Benchmarks regenerating the paper's evaluation, one benchmark family
// per table/figure, plus the ablations called out in DESIGN.md. Heavy
// cases (m = 512, 1024) take seconds per iteration; run with
// -benchtime=1x for a single-pass regeneration:
//
//	go test -bench=. -benchmem -benchtime=1x .
package timeprints_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	timeprints "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/properties"
	"repro/internal/reconstruct"
	"repro/internal/sat"
)

// benchBudget caps each SAT call inside the table benchmarks. The
// paper's own hardest cells run for tens of minutes (e.g. Table 2's
// 512/4 c-SAT at 33m17s on CryptoMiniSat); the budget keeps a full
// benchmark sweep to minutes while still exposing the ordering. Cells
// that exhaust it report a nonzero "timeouts" metric.
const benchBudget = 2_000_000

// BenchmarkTable1 times each (m, k, query) cell of Table 1.
func BenchmarkTable1(b *testing.B) {
	for _, c := range bench.Table1Cases(testing.Short()) {
		m, k := c[0], c[1]
		enc, err := bench.CachedEncoding("incremental", m, bench.PaperB[m], 4, 0)
		if err != nil {
			b.Fatal(err)
		}
		entry := core.Log(enc, bench.PlantedSignal(m, k))
		for _, q := range bench.Queries() {
			b.Run(fmt.Sprintf("m=%d/k=%d/%s", m, k, q.Name), func(b *testing.B) {
				timeouts := 0
				for i := 0; i < b.N; i++ {
					if cell := bench.RunQuery(enc, entry, q, benchBudget); cell.TimedOut {
						timeouts++
					}
				}
				b.ReportMetric(float64(timeouts), "timeouts")
			})
		}
	}
}

// BenchmarkTable2 times the encoding-scheme comparison cells.
func BenchmarkTable2(b *testing.B) {
	for _, c := range bench.Table2Cases(testing.Short()) {
		m, k := c[0], c[1]
		sig := bench.PlantedSignal(m, k)
		for _, scheme := range []struct {
			name string
			gen  string
			bits int
			seed int64
		}{
			{"incremental", "incremental", bench.PaperB[m], 0},
			{"random", "random", bench.RandomB[m], 1},
		} {
			enc, err := bench.CachedEncoding(scheme.gen, m, scheme.bits, 4, scheme.seed)
			if err != nil {
				b.Fatal(err)
			}
			entry := core.Log(enc, sig)
			for _, q := range bench.Queries() {
				if q.Limit != 1 {
					continue
				}
				b.Run(fmt.Sprintf("m=%d/k=%d/%s/%s", m, k, scheme.name, q.Name), func(b *testing.B) {
					timeouts := 0
					for i := 0; i < b.N; i++ {
						if cell := bench.RunQuery(enc, entry, q, benchBudget); cell.TimedOut {
							timeouts++
						}
					}
					b.ReportMetric(float64(timeouts), "timeouts")
				})
			}
		}
	}
}

// BenchmarkFigure4 reruns the didactic staircase (256 -> 8 -> 1).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		if res.AnyK != 256 || res.WithK != 8 || res.WithProperty != 1 {
			b.Fatalf("staircase %d/%d/%d, want 256/8/1", res.AnyK, res.WithK, res.WithProperty)
		}
	}
}

// BenchmarkCANReconstruction regenerates Section 5.2.1: whole-cycle
// and windowed reconstruction plus the deadline proof.
func BenchmarkCANReconstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCAN(experiments.DefaultCANConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.WholeOffsets) != 1 || res.WholeOffsets[0] != 823 {
			b.Fatalf("offsets %v", res.WholeOffsets)
		}
	}
}

// BenchmarkRefreshDetect regenerates Section 5.2.2 at one ambient.
func BenchmarkRefreshDetect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRefresh(experiments.DefaultRefreshConfig(45))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.TPMismatches) == 0 {
			b.Fatal("no mismatches")
		}
	}
}

// BenchmarkLogging measures the on-line cost of the logging procedure
// itself — the part that would run in hardware.
func BenchmarkLogging(b *testing.B) {
	enc, err := timeprints.NewEncoding(1024, 24)
	if err != nil {
		b.Fatal(err)
	}
	logger := timeprints.NewLogger(enc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logger.TickChange(i%37 == 0)
	}
}

// BenchmarkEncodingGeneration measures the one-time setup cost of the
// paper's two generators.
func BenchmarkEncodingGeneration(b *testing.B) {
	for _, tc := range []struct {
		scheme string
		m, bts int
	}{
		{"incremental", 64, 13},
		{"incremental", 1024, 24},
		{"random", 512, 31},
	} {
		b.Run(fmt.Sprintf("%s/m=%d", tc.scheme, tc.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if tc.scheme == "incremental" {
					_, err = encoding.Incremental(tc.m, tc.bts, 4)
				} else {
					_, err = encoding.RandomConstrained(tc.m, tc.bts, 4, int64(i), 0)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationCardinality compares the Sinz sequential counter
// (cnf.ExactlyK: one ladder, m·(k+1) auxiliary variables) against the
// naive binomial encoding (ablation_test.go instances).
func BenchmarkAblationCardinality(b *testing.B) {
	// m is kept small: the binomial encoding needs C(m, k+1) clauses
	// and refuses anything explosive by design.
	enc, err := bench.CachedEncoding("incremental", 32, 11, 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	entry := core.Log(enc, bench.PlantedSignal(32, 3))
	benchmarkAblations(b, enc, entry, []ablation{
		{name: "sinz", cut: 8},
		{name: "binomial", cut: 8, binomial: true},
	})
}

// BenchmarkAblationXor compares native XOR clauses (with and without
// cutting) against Tseitin CNF expansion (ablation_test.go instances).
func BenchmarkAblationXor(b *testing.B) {
	enc, err := bench.CachedEncoding("incremental", 128, 16, 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	entry := core.Log(enc, bench.PlantedSignal(128, 4))
	benchmarkAblations(b, enc, entry, []ablation{
		{name: "native-cut8", cut: 8},
		{name: "native-uncut"},
		{name: "native-cut4", cut: 4},
		{name: "native-cut16", cut: 16},
		{name: "tseitin-cnf", xorCNF: true},
	})
}

// benchmarkAblations times a 10-candidate enumeration of entry under
// each ablation variant.
func benchmarkAblations(b *testing.B, enc *encoding.Encoding, entry core.LogEntry, modes []ablation) {
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst, err := newAblation(enc, entry, mode, nil, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := inst.enumerate(10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSATvsBruteForce compares the SAT path against the
// GF(2) coset walk, which visits the Σ C(nullity, ≤k) coset points
// that can have weight k (here nullity 11, k = 4: 562 points).
func BenchmarkAblationSATvsBruteForce(b *testing.B) {
	enc, err := bench.CachedEncoding("incremental", 20, 10, 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	entry := core.Log(enc, bench.PlantedSignal(20, 4))
	b.Run("sat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec, err := reconstruct.New(enc, entry, nil, reconstruct.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := rec.EnumerateStrict(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reconstruct.BruteForce(enc, entry, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPresolveOnOff quantifies the GF(2) Gaussian presolve: the
// same reconstruction through reconstruct.New and through the raw-rows
// ablation (ablation_test.go), which feeds the b parity rows to the
// solver without row reduction. The presolve drops b − rank redundant
// parity rows and fixes unit-row positions before the solver ever runs.
// The summed solver conflicts per op are deterministic, so BENCH.json
// guards them next to the wall clock.
func BenchmarkPresolveOnOff(b *testing.B) {
	for _, c := range []struct{ m, k int }{{128, 4}, {512, 8}} {
		enc, err := bench.CachedEncoding("incremental", c.m, bench.PaperB[c.m], 4, 0)
		if err != nil {
			b.Fatal(err)
		}
		entry := core.Log(enc, bench.PlantedSignal(c.m, c.k))
		b.Run(fmt.Sprintf("m=%d/k=%d/presolve", c.m, c.k), func(b *testing.B) {
			reg := obs.NewRegistry()
			opts := reconstruct.Options{MaxConflicts: benchBudget, Obs: reg}
			var fixed, freed float64
			for i := 0; i < b.N; i++ {
				rec, err := reconstruct.New(enc, entry, nil, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, st, err := rec.First(); err != nil || st != sat.Sat {
					b.Fatalf("status %v err %v", st, err)
				}
				ps := rec.Stats().Presolve
				fixed, freed = float64(ps.Fixed), float64(ps.Freed)
			}
			reportConflicts(b, reg)
			b.ReportMetric(fixed, "fixed")
			b.ReportMetric(freed, "freed")
		})
		b.Run(fmt.Sprintf("m=%d/k=%d/raw", c.m, c.k), func(b *testing.B) {
			reg := obs.NewRegistry()
			for i := 0; i < b.N; i++ {
				inst, err := newAblation(enc, entry, rawAblation, reg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				if st := inst.bld.S.Solve(); st != sat.Sat {
					b.Fatalf("status %v", st)
				}
			}
			reportConflicts(b, reg)
		})
	}
}

// BenchmarkParallelWorkers exercises the cube-split portfolio across
// worker counts on a full enumeration with a fixed amount of total
// work that the cubes partition: a window-restricted m = 512 instance
// (the paper's failure-window query shape) whose ~1.5k candidates are
// exhausted in seconds serially. Wall-clock speedup needs real cores —
// with GOMAXPROCS=1 the portfolio degenerates to sequential cube
// processing and this benchmark measures its overhead instead.
func BenchmarkParallelWorkers(b *testing.B) {
	const m, window = 512, 26
	enc, err := bench.CachedEncoding("incremental", m, bench.PaperB[m], 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	entry := core.Log(enc, core.SignalFromChanges(m, 2, 7, 11, 15, 19, 21, 23, 25))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var count float64
			for i := 0; i < b.N; i++ {
				rec, err := reconstruct.New(enc, entry,
					[]reconstruct.Constraint{properties.Window{Lo: 0, Hi: window}}, reconstruct.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sigs, exhausted, err := rec.EnumerateParallelStrict(0, workers)
				if err != nil {
					b.Fatal(err)
				}
				if !exhausted {
					b.Fatal("enumeration not exhausted")
				}
				count = float64(len(sigs))
			}
			b.ReportMetric(count, "candidates")
		})
	}
}

// BenchmarkAblationLIDepth quantifies what the LI-4 constraint buys:
// ambiguity (candidate count) and solve time under weaker depths.
func BenchmarkAblationLIDepth(b *testing.B) {
	for _, d := range []int{2, 3, 4} {
		enc, err := bench.CachedEncoding("incremental", 64, 13, d, 0)
		if err != nil {
			b.Fatal(err)
		}
		entry := core.Log(enc, bench.PlantedSignal(64, 4))
		b.Run(fmt.Sprintf("LI-%d", d), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				rec, err := reconstruct.New(enc, entry, nil, reconstruct.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sigs, _, err := rec.EnumerateStrict(0)
				if err != nil {
					b.Fatal(err)
				}
				total = len(sigs)
			}
			b.ReportMetric(float64(total), "candidates")
		})
	}
}

// BenchmarkSessionQueries is the incremental-solving headline: the
// post-silicon debug session workload (Cao et al.) — one fixed m=512
// LI-4 encoding, 16 successive (TP, k=8) log entries from one traced
// signal, each asking for a witness reconstruction under the debug
// hypothesis that the activity burst lies inside a 48-cycle suspicion
// window (the paper's Section 5 postmortem query). The incremental
// side builds one reconstruct.Session and answers every entry with
// assumption solves on the retained solver, so the A-structure, the
// cardinality ladder and the window's guarded encoding are paid for
// once; the fresh side rebuilds a one-shot CNF instance per entry,
// the pre-PR6 behavior, and its per-query encode + presolve cost
// dominates. BENCH.json (make bench-check) guards both sides' wall
// clock and summed solver conflicts; the incremental side must hold a
// >= 2x advantage.
func BenchmarkSessionQueries(b *testing.B) {
	const (
		m       = 512
		k       = 8
		queries = 16
	)
	enc, err := bench.CachedEncoding("incremental", m, bench.PaperB[m], 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	window := properties.Window{Lo: 0, Hi: 48}
	props := []reconstruct.Constraint{window}
	// 16 distinct 8-change bursts inside the window, generated by a
	// fixed congruence so the workload is deterministic.
	entries := make([]core.LogEntry, queries)
	for q := range entries {
		changes := make([]int, 0, k)
		used := map[int]bool{}
		x := 3 + q
		for len(changes) < k {
			x = (x*5 + 3 + q) % window.Hi
			for used[x] {
				x = (x + 1) % window.Hi
			}
			used[x] = true
			changes = append(changes, x)
		}
		entries[q] = core.Log(enc, core.SignalFromChanges(m, changes...))
	}

	b.Run("incremental", func(b *testing.B) {
		reg := obs.NewRegistry()
		for i := 0; i < b.N; i++ {
			sess := reconstruct.NewSession(enc, reconstruct.SessionOptions{MaxK: k, Obs: reg})
			for _, e := range entries {
				sigs, _, err := sess.Query(e, props, 1)
				if err != nil {
					b.Fatal(err)
				}
				if len(sigs) == 0 {
					b.Fatal("no witness")
				}
			}
		}
		reportConflicts(b, reg)
	})
	b.Run("fresh", func(b *testing.B) {
		reg := obs.NewRegistry()
		for i := 0; i < b.N; i++ {
			for _, e := range entries {
				rec, err := reconstruct.New(enc, e, props, reconstruct.Options{Obs: reg})
				if err != nil {
					b.Fatal(err)
				}
				sigs, _, err := rec.EnumerateStrict(1)
				if err != nil {
					b.Fatal(err)
				}
				if len(sigs) == 0 {
					b.Fatal("no witness")
				}
			}
		}
		reportConflicts(b, reg)
	})
}

// BenchmarkSessionQueriesGauss is the in-search Gauss headline: the
// unconstrained m=512 witness cells — the planted Table 1 entries for
// k = 3, 4, 8, queried through a fresh session with NO suspicion
// window, the regime where 256-wide parity rows only propagate once a
// single literal is left unless the reduced GF(2) matrix stays live
// across decision levels, as every session's does (re-reduced from
// the parity rows at each solve and restart). The planted entries are
// deterministic, so the summed conflict count is a stable
// machine-independent effort metric that BENCH.json (make bench-check)
// pins next to the wall clock; gprops and gconfl report the
// propagator's implications and conflicts. The comparison against the
// plain solver's clause-watched XORs lives in internal/sat's parity
// hammer. (A burst-entry variant
// of this workload is heavy-tail-dominated: per-query conflicts span
// 300-74k on identical configurations, so a 16-query mean says little.)
func BenchmarkSessionQueriesGauss(b *testing.B) {
	const m = 512
	ks := []int{3, 4, 8}
	enc, err := bench.CachedEncoding("incremental", m, bench.PaperB[m], 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	var conflicts, gprops, gconfl int64
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			reg := obs.NewRegistry()
			sess := reconstruct.NewSession(enc, reconstruct.SessionOptions{MaxK: k, Obs: reg})
			entry := core.Log(enc, bench.PlantedSignal(m, k))
			sigs, _, err := sess.Query(entry, nil, 1)
			if err != nil {
				b.Fatal(err)
			}
			if len(sigs) == 0 {
				b.Fatal("no witness")
			}
			snap := reg.Snapshot().Counters
			conflicts += snap[sat.MetricConflicts]
			gprops += snap[sat.MetricGaussInSearchProps]
			gconfl += snap[sat.MetricGaussInSearchConflicts]
			if testing.Verbose() {
				b.Logf("k=%d: %d conflicts", k, snap[sat.MetricConflicts])
			}
		}
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts")
	b.ReportMetric(float64(gprops)/float64(b.N), "gprops")
	b.ReportMetric(float64(gconfl)/float64(b.N), "gconfl")
}

// forensicQuery is one query of the forensic-witness shape: a single
// witness for a k = 4..8 burst inside its own 48-cycle suspicion
// window, on the m=128 paper encoding.
type forensicQuery struct {
	entry core.LogEntry
	props []reconstruct.Constraint
}

// forensicQueries returns the m=128 paper encoding and n forensic
// queries drawn from a seed-1 generator, so every caller asking for
// n queries gets the same sequence and a shorter one is its prefix.
func forensicQueries(tb testing.TB, n int) (*encoding.Encoding, []forensicQuery) {
	const (
		m      = 128
		window = 48
	)
	enc, err := bench.CachedEncoding("incremental", m, bench.PaperB[m], 4, 0)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([]forensicQuery, n)
	for i := range queries {
		k := 4 + i%5
		from := rng.Intn(m - window + 1)
		changes := rng.Perm(window)[:k]
		for j := range changes {
			changes[j] += from
		}
		queries[i] = forensicQuery{
			entry: core.Log(enc, core.SignalFromChanges(m, changes...)),
			props: []reconstruct.Constraint{properties.Window{Lo: from, Hi: from + window}},
		}
	}
	return enc, queries
}

// runForensic asks o for one witness of each query in turn.
func runForensic(ctx context.Context, o *reconstruct.SessionOracle, queries []forensicQuery) error {
	for _, q := range queries {
		sigs, _, err := o.Enumerate(ctx, q.entry, q.props, 1)
		if err == nil && len(sigs) == 0 {
			err = fmt.Errorf("no witness for k=%d", q.entry.K)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkSessionOracleConcurrent guards the SessionOracle's warm
// session pool under the forensic-witness shape: 2 goroutines each ask
// one SessionOracle for 16 of the forensicQueries. It guards the pool
// against regressions of itself: 32 heavy-tailed queries are too few
// to rank pool designs against each other (EXPERIMENTS.md). Which
// goroutine's session serves which query depends on scheduling, so
// conflicts vary between runs and only ns/op is guarded (BENCH.json,
// make bench-check).
func BenchmarkSessionOracleConcurrent(b *testing.B) {
	const (
		goroutines = 2
		perG       = 16
	)
	enc, queries := forensicQueries(b, goroutines*perG)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o := reconstruct.NewSessionOracle(enc, reconstruct.SessionOptions{})
		b.StartTimer()
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = runForensic(ctx, o, queries[g*perG:(g+1)*perG])
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// warmQueries is the length of the sequential forensic run that
// BenchmarkSessionWarm times and TestSessionWarmPinnedSearch pins.
const warmQueries = 48

// BenchmarkSessionWarm is the forensic-witness search in process: the
// warmQueries forensic queries in sequence on one SessionOracle, whose
// single pooled session stays warm across them. One goroutine means a
// deterministic search, so the summed conflicts are a guard next to
// the wall clock and B/op (BENCH.json, make bench-check). allocs/op is
// a guard too but repeats only to a few allocations: the Go runtime
// counts the sudogs its own collector allocates at mark termination,
// so the count moves with the number of GC cycles in the run. The
// set-up, whose encoding is built on the first call in a process only,
// stays out of the count.
func BenchmarkSessionWarm(b *testing.B) {
	enc, queries := forensicQueries(b, warmQueries)
	ctx := context.Background()
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o := reconstruct.NewSessionOracle(enc, reconstruct.SessionOptions{Obs: reg})
		b.StartTimer()
		if err := runForensic(ctx, o, queries); err != nil {
			b.Fatal(err)
		}
	}
	reportConflicts(b, reg)
}

// TestSessionWarmPinnedSearch pins the solver's search on the
// BenchmarkSessionWarm sequence: the summed conflicts, decisions,
// propagations and in-search Gauss implications and conflicts after 16
// and after all warmQueries queries are deterministic, so a change to
// the solver's data structures that claims to keep the search as it was
// must reproduce them exactly. The in-search matrix absorbs every
// parity row, so no row is left to clause-watched XOR propagation and
// its counter must stay 0. The race detector slows the solver about
// 14x, so a -race run stops at the first checkpoint.
func TestSessionWarmPinnedSearch(t *testing.T) {
	checkpoints := []struct {
		after                                                      int
		conflicts, decisions, propagations, gaussProps, gaussConfl int64
	}{
		{16, 2199, 3187, 176156, 8924, 939},
		{warmQueries, 18517, 24666, 1285315, 71632, 7687},
	}
	if raceEnabled {
		checkpoints = checkpoints[:1]
	}
	enc, queries := forensicQueries(t, warmQueries)
	reg := obs.NewRegistry()
	o := reconstruct.NewSessionOracle(enc, reconstruct.SessionOptions{Obs: reg})
	done := 0
	for _, cp := range checkpoints {
		if err := runForensic(context.Background(), o, queries[done:cp.after]); err != nil {
			t.Fatal(err)
		}
		done = cp.after
		snap := reg.Snapshot().Counters
		for _, c := range []struct {
			name string
			want int64
		}{
			{sat.MetricConflicts, cp.conflicts},
			{sat.MetricDecisions, cp.decisions},
			{sat.MetricPropagations, cp.propagations},
			{sat.MetricGaussInSearchProps, cp.gaussProps},
			{sat.MetricGaussInSearchConflicts, cp.gaussConfl},
			{sat.MetricXorProps, 0},
		} {
			if got := snap[c.name]; got != c.want {
				t.Errorf("after %d queries: %s = %d, want %d", done, c.name, got, c.want)
			}
		}
	}
}

// BenchmarkDispatch is the cost-model routing headline: a mix of
// requests a debug frontend actually sends — rank-pinned one-hot
// queries (nullity 0, answerable by elimination alone) and small-k
// postmortem queries (algebraic decode territory) — pushed through the
// dispatcher with auto-routing versus pinned to always-SAT. Auto must
// hold a >= 2x advantage: pinned systems never touch the solver and
// k <= 4 never builds a CNF. BENCH.json (make bench-check) guards both
// sides' wall clock and summed solver conflicts, which are zero on the
// auto side, and the auto side's allocs/op and B/op: a pinned request
// is answered from the elimination feature extraction already did.
func BenchmarkDispatch(b *testing.B) {
	onehot := encoding.OneHot(96)
	inc, err := bench.CachedEncoding("incremental", 128, bench.PaperB[128], 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	type request struct {
		enc   *encoding.Encoding
		entry core.LogEntry
	}
	var mix []request
	for i := 0; i < 6; i++ {
		mix = append(mix, request{onehot, core.Log(onehot, core.SignalFromChanges(96, i, i+7, i+20, i+41))})
		mix = append(mix, request{inc, core.Log(inc, core.SignalFromChanges(128, i+2, i+13, i+55))})
	}
	for _, mode := range []struct {
		name  string
		force string
	}{
		{"auto", "auto"},
		{"always-sat", "sat"},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			reg := obs.NewRegistry()
			dispatchers := map[*encoding.Encoding]*reconstruct.Dispatcher{}
			for _, e := range []*encoding.Encoding{onehot, inc} {
				d, err := reconstruct.NewDispatcher(e, reconstruct.DispatchOptions{Force: mode.force, Obs: reg})
				if err != nil {
					b.Fatal(err)
				}
				dispatchers[e] = d
			}
			// Set-up stays out of the timed loop: the dispatchers above and
			// the decoder's O(m²) pair index, which the first decode-routed
			// request (mix[1], incremental k=3) builds lazily.
			for _, req := range mix[:2] {
				if _, _, err := dispatchers[req.enc].Enumerate(context.Background(), req.entry, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
			setupConflicts := reg.Counter(sat.MetricConflicts).Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, req := range mix {
					sigs, exhausted, err := dispatchers[req.enc].Enumerate(context.Background(), req.entry, nil, 0)
					if err != nil {
						b.Fatal(err)
					}
					if !exhausted || len(sigs) == 0 {
						b.Fatalf("got %d candidates (exhausted=%v)", len(sigs), exhausted)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(reg.Counter(sat.MetricConflicts).Value()-setupConflicts)/float64(b.N), "conflicts")
		})
	}
}

// reportConflicts reports the solver conflicts reg counted during the
// benchmark as a per-op "conflicts" metric.
func reportConflicts(b *testing.B, reg *obs.Registry) {
	b.ReportMetric(float64(reg.Counter(sat.MetricConflicts).Value())/float64(b.N), "conflicts")
}
