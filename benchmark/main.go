// Command benchmark is the timeprintd benchmark: four closed-loop
// workloads against an in-process daemon, end-to-end metrics measured
// with tracing off, and a traced in-process replay that breaks the time
// down by layer. See README.md for the workloads and metrics.
//
//	go run -C benchmark . -seed 1                     # all workloads
//	go run -C benchmark . -workload hot-requery -seed 2
//	go run -C benchmark . -trace 1 -seed 1            # per-layer metrics
//	go run -C benchmark . -runs 5 -seed 1             # calibration
//
// Each workload's fixed work is split into parts, each run by a fresh
// child process. The last line on standard output is one JSON object:
// correct, attempted, failed and metrics (each a value with its unit);
// the report goes to standard error.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "size of each run: the fixed work takes about this long on the reference machine")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from the daemon's counters and a traced replay")
	runs := flag.Int("runs", 1, "calibration: run each workload this many times, seeds seed..seed+runs-1, and print the spread")
	work := flag.String("work", ".bench_build/work", "scratch directory for the fleet store and its copies")
	out := flag.String("out", ".bench_build/spans", "directory for the span JSONL files of -trace 1 runs")
	child := flag.Bool("child", false, "internal: run one workload in this process")
	fleet := flag.String("fleet", "", "internal: fleet store directory")
	part := flag.Int("part", 0, "internal: which part of the workload's work to run")
	flag.Parse()

	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, part: *part,
		fleetDir: *fleet, frames: fleetFrames, work: *work, spans: *out}
	if *child {
		os.Exit(childMain(cfg))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		os.Exit(2)
	}
	if *runs < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -runs must be >= 1 and -seconds > 0")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := parentMain(ctx, cfg, *runs)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// childMain runs one part of a workload and writes its result as JSON
// on stdout.
func childMain(cfg runConfig) int {
	err := func() error {
		sums, err := readSums(cfg.fleetDir + ".sums")
		if err != nil {
			return err
		}
		cfg.sums, cfg.frames = sums, len(sums)/fleetDevices
		cfg.work = filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, cfg.part))
		cfg.spans = filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d-part%d.jsonl", cfg.workload, cfg.seed, cfg.part))
		res, err := runPart(cfg)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	return 0
}

// parentMain builds the fleet store for each seed, runs every selected
// workload as parts, each in a fresh child process, reports, and prints
// the result line. It fails when any child fails or any answer is
// wrong.
func parentMain(ctx context.Context, cfg runConfig, runs int) error {
	selected := workloads
	if cfg.workload != "" {
		w, err := findWorkload(cfg.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spans, err := filepath.Abs(cfg.spans)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := os.MkdirAll(spans, 0o755); err != nil {
			return err
		}
	}
	printMachine(os.Stderr, cfg)

	var all []result
	for r := 0; r < runs; r++ {
		seed := cfg.seed + int64(r)
		fleetDir := filepath.Join(dir, fmt.Sprintf("fleet-%d", seed))
		start := time.Now()
		sums, err := buildFleet(fleetDir, seed, cfg.frames)
		if err != nil {
			return fmt.Errorf("fleet store: %w", err)
		}
		if err := writeSums(fleetDir+".sums", sums); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "seed %d: fleet store of %d records built in %.1fs\n", seed, len(sums), time.Since(start).Seconds())
		for _, w := range selected {
			var ps []result
			for part := 0; part < parts; part++ {
				args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(seed), "-part", fmt.Sprint(part),
					"-seconds", fmt.Sprint(cfg.seconds), "-trace", boolArg(cfg.trace),
					"-fleet", fleetDir, "-work", dir, "-out", spans}
				res, err := runChild(ctx, exe, args, time.Duration((60+10*cfg.seconds/parts)*float64(time.Second)))
				if err != nil {
					return fmt.Errorf("%s (seed %d, part %d): %w", w.name, seed, part, err)
				}
				ps = append(ps, res)
			}
			res := combine(ps)
			printResult(os.Stderr, res)
			all = append(all, res)
		}
		if err := os.RemoveAll(fleetDir); err != nil {
			return err
		}
	}
	if runs > 1 {
		printCalibration(os.Stderr, all)
	}
	line := resultLine(all, cfg.trace, len(selected) == 1)
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		return err
	}
	if !line.Correct {
		return errors.New("some answers were wrong or some operations failed; see the report above")
	}
	return nil
}

func boolArg(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// runChild runs one part's process and decodes its result. The child's
// report goes straight to our standard error. A child that outlives
// timeout (a hung daemon) is killed, and so is one whose parent dies.
func runChild(ctx context.Context, exe string, args []string, timeout time.Duration) (result, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 10 * time.Second
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return result{}, fmt.Errorf("child result: %w", err)
	}
	return res, nil
}

func writeSums(path string, sums []uint64) error {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, sums); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readSums(path string) ([]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sums := make([]uint64, len(data)/8)
	return sums, binary.Read(bytes.NewReader(data), binary.LittleEndian, sums)
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// resultLine folds results into the output line: the end-to-end
// metrics, or with trace the per-layer ones, as medians over runs.
// Metric names carry a "<workload>/" prefix unless one workload ran.
func resultLine(all []result, trace, single bool) line {
	l := line{Correct: len(all) > 0, Metrics: map[string]valueUnit{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	values := map[string][]float64{}
	for _, r := range all {
		l.Correct = l.Correct && r.Correct
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		src := r.EndToEnd
		if trace {
			src = r.PerLayer
		}
		for _, d := range defs {
			values[metricKey(r.Workload, d.name, single)] = append(values[metricKey(r.Workload, d.name, single)], src[d.name])
		}
	}
	for _, r := range all {
		for _, d := range defs {
			k := metricKey(r.Workload, d.name, single)
			l.Metrics[k] = valueUnit{Value: median(values[k]), Unit: d.unit}
		}
	}
	return l
}

func metricKey(workload, name string, single bool) string {
	if single {
		return name
	}
	return workload + "/" + name
}

// printMachine states the machine the numbers come from.
func printMachine(w io.Writer, cfg runConfig) {
	fmt.Fprintf(w, "machine: %d CPUs, GOMAXPROCS %d, %s, %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(w, "run: %gs of work per workload in %d processes, %d closed-loop clients, %d cold starts each, fleet %d devices x %d frames\n",
		cfg.seconds, parts, clients, coldStarts, fleetDevices, cfg.frames)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

func printResult(w io.Writer, r result) {
	status := "ok"
	if !r.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "\n== %s (seed %d): %s, %d of %d ops attempted, %d failed, %.1fs timed, latency tail p%g supported\n",
		r.Workload, r.Seed, status, r.Attempted, r.Ops, r.Failed, r.WallS, 100*r.Tail)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	fmt.Fprintf(w, "   ops/s by part: %.1f\n", r.PartOpsS)

	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.name, r.EndToEnd[d.name], d.unit)
	}
	if r.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.name, r.PerLayer[d.name], d.unit)
	}
	fmt.Fprintf(w, "   %-12s %10s %12s %12s\n", "layer", "calls", "self ms", "ns/call")
	for _, l := range r.Layers {
		fmt.Fprintf(w, "   %-12s %10d %12.2f %12.0f\n", l.Layer, l.Calls, float64(l.SelfNS)/1e6, ratio(float64(l.SelfNS), float64(l.Calls)))
	}
}

// printCalibration prints, per workload and end-to-end metric, the
// median, quartiles and spreads over the runs, and whether the first
// and second half of the runs agree within the metric's bound.
func printCalibration(w io.Writer, all []result) {
	fmt.Fprintf(w, "\ncalibration over %d runs per workload (spread = IQR / median; ok below bound/3)\n", len(all)/len(workloadsIn(all)))
	fmt.Fprintf(w, "%-17s %-15s %12s %12s %12s %8s %8s %6s %s\n", "workload", "metric", "median", "q1", "q3", "spread", "range", "bound", "verdict")
	for _, name := range workloadsIn(all) {
		for _, d := range endToEnd {
			var vs []float64
			for _, r := range all {
				if r.Workload == name {
					vs = append(vs, r.EndToEnd[d.name])
				}
			}
			q1, q3 := quartiles(vs)
			m := median(vs)
			sorted := sortedCopy(vs)
			lo, hi := sorted[0], sorted[len(sorted)-1]
			sp := spread(vs)
			verdict := "ok"
			switch {
			case sp >= d.bound:
				verdict = "NOISY"
			case sp >= d.bound/3:
				verdict = "within bound"
			}
			if half := len(vs) / 2; half >= 2 && regressed(d.better, d.bound, median(vs[:half]), median(vs[half:2*half])) {
				verdict += ", halves DISAGREE"
			}
			fmt.Fprintf(w, "%-17s %-15s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f %s\n",
				name, d.name, m, q1, q3, sp, ratio(hi-lo, m), d.bound, verdict)
		}
	}
}

func workloadsIn(all []result) []string {
	var names []string
	for _, r := range all {
		if !slices.Contains(names, r.Workload) {
			names = append(names, r.Workload)
		}
	}
	return names
}
