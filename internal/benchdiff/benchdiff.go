// Package benchdiff is the repository's one benchmark-regression
// guard, dependency-free: it parses `go test -bench` output (and the
// tprload harness's lines in the same format), reduces repeated -count
// runs to a median per (benchmark, unit) — the benchstat reduction,
// without the external module — and compares a run against the
// recorded baseline, BENCH.json, with per-suite relative thresholds.
//
// The guarded columns are wall clock (ns/op) and the effort counters
// conflicts, allocs/op and B/op. The summed solver conflicts of a
// planted instance are deterministic, so they pin the search work the
// paper's reconstruction cost rests on independently of the machine's
// clock. allocs/op and B/op repeat only to within a few allocations:
// the Go runtime counts what its collector allocates (sudogs at mark
// termination), so they move with the number of GC cycles in a run. Answer-shape columns a benchmark also reports (candidates,
// fixed, freed) are pinned by tests, not here.
//
// `make bench-record` writes BENCH.json together with a note on the
// machine it ran on; `make bench-check` reruns every guarded benchmark,
// prints the recorded and the current machine, and fails if any
// recorded median rose past its threshold or is missing from the run.
package benchdiff

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// guardedUnits are the result columns the guard records and compares.
// Any other column on a result line is ignored.
var guardedUnits = []string{"ns/op", "B/op", "allocs/op", "conflicts"}

// Machine notes the host a run came from, so a baseline names the
// machine its numbers mean something on.
type Machine struct {
	// CPU is go test's "cpu:" header line.
	CPU string `json:"cpu"`
	// GOMAXPROCS is read from the "-N" benchmark-name suffix; go test
	// omits the suffix at GOMAXPROCS=1.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NProc and Go are the logical CPU count and the Go version of the
	// process that parsed the run.
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
}

func (m Machine) String() string {
	return fmt.Sprintf("cpu %q, GOMAXPROCS=%d, nproc=%d, %s", m.CPU, m.GOMAXPROCS, m.NProc, m.Go)
}

// Run is one parsed benchmark stream.
type Run struct {
	// Machine carries the CPU and GOMAXPROCS seen in the stream;
	// NProc and Go are left for the caller to fill.
	Machine Machine
	// Samples maps benchmark name, then unit, to one value per
	// repeated -count run.
	Samples map[string]map[string][]float64
}

// cpuSuffix matches the "-8" GOMAXPROCS suffix go test appends to
// benchmark names.
var cpuSuffix = regexp.MustCompile(`-(\d+)$`)

// Parse reads a whole benchmark stream. Result lines contribute every
// guarded column, keyed by the benchmark name without its "Benchmark"
// prefix and GOMAXPROCS suffix; headers, PASS/ok trailers and log
// output are skipped, as is any line that does not parse as a result.
func Parse(r io.Reader) (Run, error) {
	run := Run{Machine: Machine{GOMAXPROCS: 1}, Samples: map[string]map[string][]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			run.Machine.CPU = strings.TrimSpace(cpu)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if n, err := strconv.ParseInt(fields[1], 10, 64); err != nil || n <= 0 {
			continue
		}
		// Value/unit pairs follow the iteration count.
		vals := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				vals = nil
				break
			}
			vals[fields[i+1]] = v
		}
		if vals == nil {
			continue
		}
		name := fields[0]
		if m := cpuSuffix.FindStringSubmatch(name); m != nil {
			procs, _ := strconv.Atoi(m[1])
			run.Machine.GOMAXPROCS = max(run.Machine.GOMAXPROCS, procs)
			name = name[:len(name)-len(m[0])]
		}
		name = strings.TrimPrefix(name, "Benchmark")
		for _, unit := range guardedUnits {
			v, ok := vals[unit]
			if !ok {
				continue
			}
			if run.Samples[name] == nil {
				run.Samples[name] = map[string][]float64{}
			}
			run.Samples[name][unit] = append(run.Samples[name][unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return Run{}, fmt.Errorf("benchdiff: reading bench output: %w", err)
	}
	if len(run.Samples) == 0 {
		return Run{}, fmt.Errorf("benchdiff: no benchmark results in input")
	}
	return run, nil
}

// Median returns the median of xs (0 for an empty slice). The input is
// not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Summarize reduces grouped samples to a median per benchmark and
// unit.
func Summarize(samples map[string]map[string][]float64) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(samples))
	for name, units := range samples {
		out[name] = make(map[string]float64, len(units))
		for unit, xs := range units {
			out[name][unit] = Median(xs)
		}
	}
	return out
}

// Baseline is the recorded comparison target, serialized as indented
// JSON (BENCH.json at the repository root).
type Baseline struct {
	// Machine is the host the medians were recorded on.
	Machine Machine `json:"machine"`
	// Note records how the baseline was produced.
	Note string `json:"note,omitempty"`
	// Samples is the largest -count the medians were reduced from.
	Samples int `json:"samples,omitempty"`
	// Thresholds maps a benchmark-name prefix to the relative rise
	// (0.30 = 30%) that fails a row; the longest matching prefix wins
	// and "" is the default every baseline must carry.
	Thresholds map[string]float64 `json:"thresholds"`
	// Benchmarks maps benchmark name, then unit, to the median.
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// Threshold returns the threshold of the longest prefix of name in
// b.Thresholds.
func (b Baseline) Threshold(name string) float64 {
	best, t := -1, 0.0
	for prefix, v := range b.Thresholds {
		if strings.HasPrefix(name, prefix) && len(prefix) > best {
			best, t = len(prefix), v
		}
	}
	return t
}

// ReadBaseline decodes a baseline written by WriteBaseline.
func ReadBaseline(r io.Reader) (Baseline, error) {
	var b Baseline
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return Baseline{}, fmt.Errorf("benchdiff: invalid baseline: %w", err)
	}
	if len(b.Benchmarks) == 0 {
		return Baseline{}, fmt.Errorf("benchdiff: baseline lists no benchmarks")
	}
	if _, ok := b.Thresholds[""]; !ok {
		return Baseline{}, fmt.Errorf(`benchdiff: baseline has no default ("") threshold`)
	}
	return b, nil
}

// WriteBaseline writes the baseline as indented JSON (keys sorted by
// encoding/json, so the file is diff-stable).
func (b Baseline) WriteBaseline(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Delta is one (benchmark, unit) baseline-vs-current comparison.
type Delta struct {
	Name, Unit string
	// Base and Cur are medians; 0 marks the side the row is missing
	// from.
	Base, Cur float64
	// Ratio is Cur/Base - 1 (+0.25 = 25% higher); 0 when either side
	// is missing, +Inf when a zero baseline became nonzero.
	Ratio float64
	// Threshold is the row's allowed rise.
	Threshold float64
	// Status is "ok", "regressed", "improved", "missing" (in current)
	// or "new" (not in baseline).
	Status string
}

func (d Delta) String() string {
	row := d.Name + " " + d.Unit
	switch d.Status {
	case "missing":
		return fmt.Sprintf("%-60s %14.0f -> MISSING from current run", row, d.Base)
	case "new":
		return fmt.Sprintf("%-60s %14s -> %14.0f (new, no baseline)", row, "-", d.Cur)
	default:
		return fmt.Sprintf("%-60s %14.0f -> %14.0f  %+6.1f%% (max %+.0f%%)  %s",
			row, d.Base, d.Cur, 100*d.Ratio, 100*d.Threshold, d.Status)
	}
}

// Compare evaluates current medians against a baseline. A recorded row
// regresses when its median rose by more than its threshold, and fails
// when the benchmark or the unit is missing from the current run; new
// rows are reported but never fail. Deltas come back sorted by name
// and unit; failures lists the "name unit" rows that should fail the
// build.
func Compare(base Baseline, cur map[string]map[string]float64) (deltas []Delta, failures []string) {
	type row struct{ name, unit string }
	var rows []row
	for name, units := range base.Benchmarks {
		for unit := range units {
			rows = append(rows, row{name, unit})
		}
	}
	for name, units := range cur {
		for unit := range units {
			if _, ok := base.Benchmarks[name][unit]; !ok {
				rows = append(rows, row{name, unit})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].name != rows[j].name {
			return rows[i].name < rows[j].name
		}
		return rows[i].unit < rows[j].unit
	})
	for _, r := range rows {
		b, inBase := base.Benchmarks[r.name][r.unit]
		c, inCur := cur[r.name][r.unit]
		d := Delta{Name: r.name, Unit: r.unit, Base: b, Cur: c, Threshold: base.Threshold(r.name)}
		switch {
		case !inCur:
			d.Status = "missing"
		case !inBase:
			d.Status = "new"
		default:
			switch {
			case b != 0:
				d.Ratio = c/b - 1
			case c != 0:
				d.Ratio = math.Inf(1)
			}
			// The epsilon keeps an exactly-at-threshold ratio (130 vs
			// 100 at 0.30) from flapping on float rounding.
			const eps = 1e-9
			switch {
			case d.Ratio > d.Threshold+eps:
				d.Status = "regressed"
			case d.Ratio < -d.Threshold-eps:
				d.Status = "improved"
			default:
				d.Status = "ok"
			}
		}
		if d.Status == "missing" || d.Status == "regressed" {
			failures = append(failures, r.name+" "+r.unit)
		}
		deltas = append(deltas, d)
	}
	return deltas, failures
}
