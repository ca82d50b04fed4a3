package benchdiff

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// benchOutput is a realistic -count=3 `go test -bench` transcript,
// including custom ReportMetric units, sub-benchmark names and the
// non-result lines a real run interleaves.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Some CPU @ 2.40GHz
BenchmarkPresolveOnOff/m=128/k=4/presolve-8         	       1	  11000000 ns/op	       300.0 conflicts	         2.000 fixed	         5.000 freed
BenchmarkPresolveOnOff/m=128/k=4/presolve-8         	       1	  10000000 ns/op	       300.0 conflicts	         2.000 fixed	         5.000 freed
BenchmarkPresolveOnOff/m=128/k=4/presolve-8         	       1	  12000000 ns/op	       300.0 conflicts	         2.000 fixed	         5.000 freed
BenchmarkPresolveOnOff/m=128/k=4/raw-8              	       1	  20000000 ns/op	       410.0 conflicts	         0 fixed	         0 freed
BenchmarkPresolveOnOff/m=128/k=4/raw-8              	       1	  22000000 ns/op	       410.0 conflicts	         0 fixed	         0 freed
BenchmarkParallelWorkers/workers=2-8                	       2	   5000000 ns/op	      1514 candidates
BenchmarkParallelWorkers/workers=2-8                	       2	   5500000 ns/op	      1514 candidates
PASS
ok  	repro	12.345s
`

// parseString runs Parse over s, failing the test on error.
func parseString(t *testing.T, s string) Run {
	t.Helper()
	run, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestParseLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		name string
		want map[string]float64
	}{
		{
			line: "BenchmarkPresolveOnOff/m=128/k=4/presolve-8 \t 1\t  11000000 ns/op\t 2.000 fixed",
			name: "PresolveOnOff/m=128/k=4/presolve",
			want: map[string]float64{"ns/op": 11000000},
		},
		{
			// One line carrying every guarded unit, in go test's order.
			line: "BenchmarkDispatch/always-sat-2 \t 1\t 2450324268 ns/op\t 91234 conflicts\t 52428800 B/op\t 612345 allocs/op",
			name: "Dispatch/always-sat",
			want: map[string]float64{"ns/op": 2450324268, "conflicts": 91234, "B/op": 52428800, "allocs/op": 612345},
		},
		{
			// The tprload harness prints no GOMAXPROCS suffix.
			line: "BenchmarkLoadHot\t1\t1350342 ns/op",
			name: "LoadHot",
			want: map[string]float64{"ns/op": 1350342},
		},
	} {
		run := parseString(t, tc.line)
		if len(run.Samples) != 1 {
			t.Fatalf("%q: parsed %v", tc.line, run.Samples)
		}
		units, ok := run.Samples[tc.name]
		if !ok {
			t.Fatalf("%q: name not %q (Benchmark prefix or cpu suffix not stripped): %v", tc.line, tc.name, run.Samples)
		}
		got := map[string]float64{}
		for u, xs := range units {
			if len(xs) != 1 {
				t.Fatalf("%q: %s samples %v", tc.line, u, xs)
			}
			got[u] = xs[0]
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: parsed %v, want %v", tc.line, got, tc.want)
		}
	}
	for _, bad := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t12.345s",
		"BenchmarkBroken-8 not-a-number 5 ns/op",
		"BenchmarkNoNs-8 	 3 	 7.5 MB/s",
		"BenchmarkGarbled-8 	 3 	 x ns/op",
		"",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("line %q accepted as a result", bad)
		}
	}
}

func TestParseGroupsByName(t *testing.T) {
	run := parseString(t, benchOutput)
	if len(run.Samples) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(run.Samples), run.Samples)
	}
	if n := len(run.Samples["PresolveOnOff/m=128/k=4/presolve"]["ns/op"]); n != 3 {
		t.Errorf("presolve samples %d, want 3", n)
	}
	if n := len(run.Samples["ParallelWorkers/workers=2"]["ns/op"]); n != 2 {
		t.Errorf("parallel samples %d, want 2", n)
	}
	want := Machine{CPU: "Some CPU @ 2.40GHz", GOMAXPROCS: 8}
	if run.Machine != want {
		t.Errorf("machine %+v, want %+v", run.Machine, want)
	}
	if _, err := Parse(strings.NewReader("PASS\nok repro 1s\n")); err == nil {
		t.Error("benchmark-free input accepted")
	}
	// go test omits the suffix at GOMAXPROCS=1.
	if run := parseString(t, "BenchmarkX \t 1 \t 5 ns/op"); run.Machine.GOMAXPROCS != 1 {
		t.Errorf("unsuffixed run: GOMAXPROCS %d, want 1", run.Machine.GOMAXPROCS)
	}
}

func TestParseUnitCustomMetric(t *testing.T) {
	run := parseString(t, benchOutput)
	xs := run.Samples["PresolveOnOff/m=128/k=4/raw"]["conflicts"]
	if len(xs) != 2 || xs[0] != 410 || xs[1] != 410 {
		t.Errorf("conflicts samples %v, want [410 410]", xs)
	}
	// Answer-shape columns are pinned by tests, not by the guard.
	for name, units := range run.Samples {
		for _, shape := range []string{"candidates", "fixed", "freed"} {
			if _, ok := units[shape]; ok {
				t.Errorf("%s: answer-shape unit %q recorded", name, shape)
			}
		}
	}
	if _, ok := run.Samples["ParallelWorkers/workers=2"]["conflicts"]; ok {
		t.Error("conflicts invented for a benchmark that does not report them")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(tc.xs); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	// Input must survive unmodified.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median sorted its input in place")
	}
}

func TestSummarizeMedians(t *testing.T) {
	sum := Summarize(map[string]map[string][]float64{
		"a": {"ns/op": {11e6, 10e6, 12e6}, "conflicts": {5, 5, 5}},
		"b": {"ns/op": {20e6, 22e6}},
	})
	if sum["a"]["ns/op"] != 11e6 || sum["a"]["conflicts"] != 5 || sum["b"]["ns/op"] != 21e6 {
		t.Errorf("summary %v", sum)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	b := Baseline{
		Machine:    Machine{CPU: "Some CPU @ 2.40GHz", GOMAXPROCS: 2, NProc: 2, Go: "go1.24.0"},
		Note:       "count=5 benchtime=1x",
		Samples:    5,
		Thresholds: map[string]float64{"": 0.30, "Load": 0.75},
		Benchmarks: map[string]map[string]float64{
			"a":       {"ns/op": 1.5e6, "conflicts": 300},
			"LoadHot": {"ns/op": 2e6},
		},
	}
	var buf bytes.Buffer
	if err := b.WriteBaseline(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("round trip\n got %+v\nwant %+v", got, b)
	}
	if got.Threshold("a") != 0.30 || got.Threshold("LoadHot") != 0.75 {
		t.Errorf("thresholds a=%v LoadHot=%v, want 0.30 and 0.75", got.Threshold("a"), got.Threshold("LoadHot"))
	}
	for _, bad := range []string{
		`{"thresholds":{"":0.3},"benchmarks":{}}`,
		`{"benchmarks":{"a":{"ns/op":1}}}`,
		`{"bogus":1}`,
	} {
		if _, err := ReadBaseline(strings.NewReader(bad)); err == nil {
			t.Errorf("baseline %s accepted", bad)
		}
	}
}

// ns builds a single-unit median table.
func ns(rows map[string]float64) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for name, v := range rows {
		out[name] = map[string]float64{"ns/op": v}
	}
	return out
}

func TestCompareThreshold(t *testing.T) {
	base := Baseline{
		Thresholds: map[string]float64{"": 0.30, "Load": 0.75},
		Benchmarks: ns(map[string]float64{
			"steady":   100,
			"slower":   100,
			"faster":   100,
			"boundary": 100,
			"gone":     100,
			"LoadCold": 100,
		}),
	}
	cur := ns(map[string]float64{
		"steady":   110,
		"slower":   140, // +40% > 30%
		"faster":   60,  // -40%
		"boundary": 130, // exactly +30%: not a regression
		"brandnew": 50,
		"LoadCold": 170, // +70%, inside the Load suite's 75%
	})
	deltas, failures := Compare(base, cur)
	if len(deltas) != 7 {
		t.Fatalf("%d deltas, want 7", len(deltas))
	}
	status := map[string]string{}
	for _, d := range deltas {
		status[d.Name] = d.Status
	}
	want := map[string]string{
		"steady": "ok", "slower": "regressed", "faster": "improved",
		"boundary": "ok", "gone": "missing", "brandnew": "new", "LoadCold": "ok",
	}
	for n, w := range want {
		if status[n] != w {
			t.Errorf("%s: status %q, want %q", n, status[n], w)
		}
	}
	if !reflect.DeepEqual(failures, []string{"gone ns/op", "slower ns/op"}) {
		t.Fatalf("failures %v, want [gone ns/op slower ns/op] sorted by name", failures)
	}
	for _, d := range deltas {
		if d.Name == "slower" && math.Abs(d.Ratio-0.40) > 1e-9 {
			t.Errorf("slower ratio %f, want 0.40", d.Ratio)
		}
		if d.String() == "" {
			t.Errorf("%s: empty rendering", d.Name)
		}
	}
}

// TestCompareRows covers the per-unit rules: a recorded unit or
// benchmark missing from the run fails, the effort counters obey the
// same threshold as wall clock, and a zero baseline may not grow.
func TestCompareRows(t *testing.T) {
	base := Baseline{
		Thresholds: map[string]float64{"": 0.30},
		Benchmarks: map[string]map[string]float64{
			"Gauss/insearch": {"ns/op": 1e9, "conflicts": 1000},
			"Dispatch/auto":  {"ns/op": 1e6, "conflicts": 0},
		},
	}
	for _, tc := range []struct {
		name string
		cur  map[string]map[string]float64
		fail []string
	}{
		{"identical", base.Benchmarks, nil},
		{"conflicts +29%", map[string]map[string]float64{
			"Gauss/insearch": {"ns/op": 1e9, "conflicts": 1290},
			"Dispatch/auto":  {"ns/op": 1e6, "conflicts": 0},
		}, nil},
		{"conflicts +31%", map[string]map[string]float64{
			"Gauss/insearch": {"ns/op": 1e9, "conflicts": 1310},
			"Dispatch/auto":  {"ns/op": 1e6, "conflicts": 0},
		}, []string{"Gauss/insearch conflicts"}},
		{"unit missing", map[string]map[string]float64{
			"Gauss/insearch": {"ns/op": 1e9},
			"Dispatch/auto":  {"ns/op": 1e6, "conflicts": 0},
		}, []string{"Gauss/insearch conflicts"}},
		{"benchmark missing", map[string]map[string]float64{
			"Gauss/insearch": {"ns/op": 1e9, "conflicts": 1000},
		}, []string{"Dispatch/auto conflicts", "Dispatch/auto ns/op"}},
		{"zero baseline grew", map[string]map[string]float64{
			"Gauss/insearch": {"ns/op": 1e9, "conflicts": 1000},
			"Dispatch/auto":  {"ns/op": 1e6, "conflicts": 3},
		}, []string{"Dispatch/auto conflicts"}},
	} {
		_, failures := Compare(base, tc.cur)
		if !reflect.DeepEqual(failures, tc.fail) {
			t.Errorf("%s: failures %v, want %v", tc.name, failures, tc.fail)
		}
	}
}

// TestEndToEndGuard is the whole guard in miniature: record a baseline
// from one transcript, then fail a doctored rerun where the raw
// (no-presolve) path got 2x slower.
func TestEndToEndGuard(t *testing.T) {
	rec := parseString(t, benchOutput)
	base := Baseline{Thresholds: map[string]float64{"": 0.30}, Benchmarks: Summarize(rec.Samples), Samples: 3}

	slowed := strings.ReplaceAll(benchOutput, "  20000000 ns/op", "  40000000 ns/op")
	slowed = strings.ReplaceAll(slowed, "  22000000 ns/op", "  44000000 ns/op")
	cur := parseString(t, slowed)
	_, failures := Compare(base, Summarize(cur.Samples))
	if !reflect.DeepEqual(failures, []string{"PresolveOnOff/m=128/k=4/raw ns/op"}) {
		t.Fatalf("failures %v, want the doctored raw benchmark only", failures)
	}

	// An identical rerun passes.
	if _, failures := Compare(base, Summarize(rec.Samples)); len(failures) != 0 {
		t.Fatalf("identical run failed the guard: %v", failures)
	}
}
