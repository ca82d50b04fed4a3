package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/properties"
	"repro/internal/service"
)

// benchmarkJSON is the schema of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the
// program's own tables equal, so the file describes what runs.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, program has %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, program has %+v", i, got, d)
		}
	}
}

// TestTinyRunReportsEveryMetric runs every workload at a tiny size,
// traced, and checks that the output line carries every metric
// BENCHMARK.json names, with its unit, and nothing else.
func TestTinyRunReportsEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	const seed, frames = 7, logsWindow + 8
	fleet := filepath.Join(t.TempDir(), "fleet")
	sums, err := buildFleet(fleet, seed, frames)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		var ps []result
		for part := 0; part < parts; part++ {
			p, err := runPart(runConfig{
				workload: w.name, seed: seed, seconds: 0.01, trace: true, part: part,
				fleetDir: fleet, frames: frames, sums: sums, work: t.TempDir(),
				spans: filepath.Join(t.TempDir(), "spans.jsonl"),
			})
			if err != nil {
				t.Fatalf("%s part %d: %v", w.name, part, err)
			}
			ps = append(ps, p)
		}
		res := combine(ps)
		if !res.Correct || res.Attempted != res.Ops || res.Failed != 0 {
			t.Fatalf("%s: correct %t, %d of %d ops attempted, %d failed: %v", w.name, res.Correct, res.Attempted, res.Ops, res.Failed, res.Errors)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			data, err := json.Marshal(resultLine([]result{res}, trace, true))
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			keys := []string{}
			for k := range got {
				keys = append(keys, k)
			}
			if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
				t.Fatalf("%s: output line keys %v, want correct, attempted, failed, metrics", w.name, keys)
			}
			var metrics map[string]valueUnit
			if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(want) {
				t.Errorf("%s (trace %t): %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(metrics), len(want))
			}
			for name, unit := range want {
				m, ok := metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s (trace %t): metric %s printed as %+v (present %t), want unit %s", w.name, trace, name, m, ok, unit)
				}
			}
		}
	}
}

// entryFor renders the daemon's answer listing the given candidates.
func entryFor(want planted, exhausted bool, candidates ...[]int) service.StreamEntryResult {
	r := service.StreamEntryResult{TP: want.entry.TP.String(), K: want.entry.K, Count: len(candidates), Exhausted: exhausted}
	for _, c := range candidates {
		r.Changes = append(r.Changes, c)
		r.Candidates = append(r.Candidates, core.SignalFromChanges(geomM, c...).String())
	}
	return r
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	enc, err := newEncoding()
	if err != nil {
		t.Fatal(err)
	}
	chk := checker{enc: enc}
	rng := rngFor(1, streamHot, 0)
	two := plantIn(enc, rng, 2, 0, geomM)
	three := plantIn(enc, rng, 3, 0, geomM)
	burst := plantIn(enc, rng, 5, 40, 88)
	window := properties.Window{Lo: 40, Hi: 88}
	if err := chk.entry(two, entryFor(two, true, two.changes), nil, defaultLimit); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := chk.entry(burst, entryFor(burst, false, burst.changes), window, 1); err != nil {
		t.Fatalf("correct witness rejected: %v", err)
	}

	moved := append([]int(nil), two.changes...)
	moved[1] = (moved[1] + 1) % geomM
	if moved[1] <= moved[0] {
		moved[0], moved[1] = moved[1], moved[0]
	}
	corrupt := entryFor(two, true, two.changes)
	corrupt.Candidates[0] = strings.Replace(corrupt.Candidates[0], "1", "0", 1)
	wrongTP := entryFor(two, true, two.changes)
	wrongTP.TP = three.entry.TP.String()
	outOfRange := entryFor(two, true, two.changes)
	outOfRange.Changes[0] = []int{two.changes[0], geomM}
	for name, c := range map[string]struct {
		want  planted
		got   service.StreamEntryResult
		prop  properties.Property
		limit int
	}{
		"candidate does not re-abstract":    {two, entryFor(two, true, moved), nil, defaultLimit},
		"change-map disagrees with changes": {two, corrupt, nil, defaultLimit},
		"answer for another entry":          {two, wrongTP, nil, defaultLimit},
		"k<=2 answer not unique":            {two, entryFor(two, true, two.changes, two.changes), nil, defaultLimit},
		"k<=2 answer not exhausted":         {two, entryFor(two, false, two.changes), nil, defaultLimit},
		"exhausted answer misses planted":   {three, entryFor(three, true), nil, defaultLimit},
		"more candidates than the limit":    {three, entryFor(three, false, three.changes), nil, 0},
		"candidate violates the property":   {burst, entryFor(burst, false, burst.changes), properties.Window{Lo: burst.changes[0] + 1, Hi: 88}, 1},
		"no witness":                        {burst, entryFor(burst, true), window, 1},
		"change cycle out of range":         {two, outOfRange, nil, defaultLimit},
	} {
		if err := chk.entry(c.want, c.got, c.prop, c.limit); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWorkloadChecksRejectCorruption feeds the stream and store-replay
// checks a wrong trace-cycle base and a corrupted stored body.
func TestWorkloadChecksRejectCorruption(t *testing.T) {
	enc, err := newEncoding()
	if err != nil {
		t.Fatal(err)
	}
	const seed, frames = 3, logsWindow
	sums, err := buildFleet(filepath.Join(t.TempDir(), "fleet"), seed, frames)
	if err != nil {
		t.Fatal(err)
	}
	in := inputs{seed: seed, chk: checker{enc: enc}, frames: frames, sums: sums}

	ingest, err := prepareIngest(in, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := makeFrame(enc, rngFor(seed, streamIngest, 2))
	if err != nil {
		t.Fatal(err)
	}
	var results []service.StreamEntryResult
	for i, c := range f.cycles {
		r := entryFor(c, c.entry.K <= 2, c.changes)
		r.TraceCycle = frameEntries + i
		results = append(results, r)
	}
	if _, err := ingest.check(2, service.StreamMsg{TraceCycleBase: frameEntries, Results: results}); err != nil {
		t.Fatalf("correct frame rejected: %v", err)
	}
	if _, err := ingest.check(2, service.StreamMsg{TraceCycleBase: 0, Results: results}); err == nil {
		t.Error("frame acked at a trace-cycle base that did not advance was accepted")
	}

	replay, err := prepareReplay(in, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	ops := replayOps(in, 0, 64)
	i := 0
	for !ops[i].logs {
		i++
	}
	o := ops[i]
	var logs logsReply
	for j := 0; j < logsWindow; j++ {
		f, err := fleetFrame(enc, seed, o.d, o.idx+j)
		if err != nil {
			t.Fatal(err)
		}
		logs.Records = append(logs.Records, struct {
			EpochUS        int64  `json:"epoch_us"`
			TraceCycleBase int64  `json:"trace_cycle_base"`
			Entries        int    `json:"entries"`
			Body           []byte `json:"body"`
		}{fleetEpoch(o.idx + j), int64((o.idx + j) * frameEntries), frameEntries, f.body})
	}
	if _, err := replay.check(i, logs); err != nil {
		t.Fatalf("correct listing rejected: %v", err)
	}
	logs.Records[7].Body = append([]byte(nil), logs.Records[7].Body...)
	logs.Records[7].Body[20] ^= 0x10
	if _, err := replay.check(i, logs); err == nil {
		t.Error("listing with a corrupted body was accepted")
	}
}

func TestPercentileSelection(t *testing.T) {
	for n, want := range map[int]float64{19: 0, 20: 0.5, 99: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 9999: 0.99, 10000: 0.999} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
	var s []float64
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	for q, want := range map[float64]float64{0.5: 500, 0.9: 900, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", q, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each data set.
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{1.0, 2.5, 2.0, 10.0, 3.3, 4.4, 5.1, 0.7, 9.9, 6.0}, 1.75, 6.975},
	} {
		q1, q3 := quartiles(c.data)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 5.5/5.5 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestBoundComparison(t *testing.T) {
	for _, c := range []struct {
		better          string
		base, now       float64
		regressedAtTenP bool
	}{
		{"lower", 100, 110, false},
		{"lower", 100, 110.5, true},
		{"lower", 100, 50, false},
		{"higher", 100, 90, false},
		{"higher", 100, 89.5, true},
		{"higher", 100, 200, false},
	} {
		if got := regressed(c.better, 0.10, c.base, c.now); got != c.regressedAtTenP {
			t.Errorf("regressed(%s, 0.10, %g, %g) = %t", c.better, c.base, c.now, got)
		}
	}
}

func TestResultLineTakesMedians(t *testing.T) {
	var runs []result
	for _, v := range []float64{3, 1, 2} {
		m := map[string]float64{}
		for _, d := range endToEnd {
			m[d.name] = v
		}
		runs = append(runs, result{Workload: "w", Correct: true, Attempted: 5, EndToEnd: m})
	}
	l := resultLine(runs, false, false)
	if !l.Correct || l.Attempted != 15 || l.Failed != 0 {
		t.Fatalf("line %+v", l)
	}
	want := map[string]valueUnit{}
	for _, d := range endToEnd {
		want["w/"+d.name] = valueUnit{Value: 2, Unit: d.unit}
	}
	if !reflect.DeepEqual(l.Metrics, want) {
		t.Errorf("metrics %v, want %v", l.Metrics, want)
	}
}
