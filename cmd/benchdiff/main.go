// Command benchdiff is the benchmark-regression guard around
// internal/benchdiff. It consumes `go test -bench` output on stdin (or
// -in) in two modes:
//
//	go test -bench ... -count=5 | benchdiff -record -baseline BENCH.json
//	go test -bench ... -count=5 | benchdiff -baseline BENCH.json
//
// Record mode reduces the repeated runs to a median per benchmark and
// guarded unit (ns/op and the effort counters) and rewrites the
// baseline with a note on the current machine, keeping the per-suite
// thresholds of the file it replaces (0.30 for everything when there
// is none). Compare mode (the default) prints the recorded and the
// current machine, then a per-row delta table, and exits 1 if any
// recorded row rose past its threshold or is missing from the run.
// `make bench-record` / `make bench-check` wrap the two.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"

	"repro/internal/benchdiff"
)

func main() {
	record := flag.Bool("record", false, "rewrite the baseline from the input instead of comparing")
	baseline := flag.String("baseline", "BENCH.json", "baseline file to compare against (or to rewrite with -record)")
	in := flag.String("in", "", "bench output file (default: stdin)")
	note := flag.String("note", "", "note stored in a recorded baseline")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		src = f
	}
	run, err := benchdiff.Parse(src)
	if err != nil {
		fail(err)
	}
	run.Machine.NProc, run.Machine.Go = runtime.NumCPU(), runtime.Version()
	medians := benchdiff.Summarize(run.Samples)

	base, err := readBaseline(*baseline)
	if *record {
		if errors.Is(err, fs.ErrNotExist) {
			base, err = benchdiff.Baseline{Thresholds: map[string]float64{"": 0.30}}, nil
		}
		if err != nil {
			fail(err)
		}
		recordBaseline(*baseline, base.Thresholds, *note, run, medians)
		return
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("recorded on: %v\ncurrent run: %v\n", base.Machine, run.Machine)
	deltas, failures := benchdiff.Compare(base, medians)
	for _, d := range deltas {
		fmt.Println(d)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d row(s) regressed or missing: %v\n", len(failures), failures)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d rows within their thresholds of %s\n", len(deltas), *baseline)
}

func readBaseline(path string) (benchdiff.Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchdiff.Baseline{}, err
	}
	defer f.Close()
	return benchdiff.ReadBaseline(f)
}

func recordBaseline(path string, thresholds map[string]float64, note string, run benchdiff.Run, medians map[string]map[string]float64) {
	nSamples := 0
	for _, units := range run.Samples {
		for _, xs := range units {
			nSamples = max(nSamples, len(xs))
		}
	}
	b := benchdiff.Baseline{
		Machine:    run.Machine,
		Note:       note,
		Samples:    nSamples,
		Thresholds: thresholds,
		Benchmarks: medians,
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := b.WriteBaseline(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("benchdiff: recorded %d benchmarks (%d samples each) on %v to %s\n",
		len(medians), nSamples, run.Machine, path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
