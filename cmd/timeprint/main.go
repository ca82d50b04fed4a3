// Command timeprint is the file-based front end of the library:
//
//	timeprint encode -m 64 -b 13                 print an LI-4 encoding
//	timeprint minb   -m 1024                     find the minimal b
//	timeprint log -m 64 -b 13 -changes 5,6,20    log a trace-cycle
//	timeprint log -m 64 -b 13 -in wire.txt       log a 0/1 wire dump
//	timeprint log -m 64 -b 13 -vcd dump.vcd -signal top.sig -out x.tpr
//	timeprint decode -in x.tpr                   print a binary log
//	timeprint reconstruct -m 64 -b 13 -tp <bits> -k 3 [-limit 10]
//	              [-window lo:hi] [-deadline D] [-paired]
//	              [-prop "mingap(3); dk(32,3)"] [-parallel N]
//	timeprint rate -m 1024 -b 24 -clock 100e6    logging bit-rate
//	timeprint selfcheck -seed 1 -cases 200       differential oracle check
//	timeprint stats -in metrics.json             pretty-print a metrics dump
//	timeprint mine -store DIR -ref-device NAME   fleet anomaly mining over
//	              a timeprintd log store (see -store-dir)
//
// The wire dump format is one '0' or '1' per clock-cycle (whitespace
// ignored). Reconstruction prints one candidate change-map per line,
// clock-cycle 0 leftmost.
//
// reconstruct and selfcheck accept two observability flags: -metrics
// FILE writes an internal/obs registry snapshot (solver counters,
// presolve outcomes, span latencies) as JSON at exit, readable with
// `timeprint stats`; -httpobs ADDR serves the live registry plus
// expvar and net/http/pprof on ADDR for the duration of the run.
//
// selfcheck runs the internal/diffcheck trust harness: a seeded corpus
// of randomized (encoding, entry) cases pushed through every
// reconstruction oracle (algebraic decode, serial SAT, parallel SAT
// portfolio, incremental session, GF(2) brute force, exhaustive
// concretization, and the cost-model dispatcher that routes between
// them) with all pairs of solution sets compared, followed by fault
// injection into
// timeprint logs asserting every corruption fails closed. It exits
// nonzero on any divergence; the printed CaseSpec reproduces a
// divergence independently of the corpus.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	timeprints "repro"
	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/obs"
	"repro/internal/vcd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "encode":
		cmdEncode(args)
	case "minb":
		cmdMinB(args)
	case "log":
		cmdLog(args)
	case "reconstruct":
		cmdReconstruct(args)
	case "decode":
		cmdDecode(args)
	case "rate":
		cmdRate(args)
	case "selfcheck":
		cmdSelfcheck(args)
	case "stats":
		cmdStats(args)
	case "mine":
		cmdMine(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: timeprint encode|minb|log|reconstruct|decode|rate|selfcheck|stats|mine [flags]")
	os.Exit(2)
}

// obsFlags registers the shared -metrics/-httpobs flags on fs and
// returns a setup function to call after parsing. Setup returns the
// registry (nil when neither flag was given, so the instrumented paths
// stay on their free nil fast path) and a flush function that writes
// the -metrics snapshot; call flush once the command's work is done.
func obsFlags(fs *flag.FlagSet) func() (*obs.Registry, func()) {
	metrics := fs.String("metrics", "", "write a metrics snapshot (JSON) to this file at exit")
	httpAddr := fs.String("httpobs", "", "serve expvar, pprof and live metrics on this address (e.g. :6060)")
	return func() (*obs.Registry, func()) {
		if *metrics == "" && *httpAddr == "" {
			return nil, func() {}
		}
		reg := obs.NewRegistry()
		if *httpAddr != "" {
			addr, err := obs.Serve(*httpAddr, reg)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "httpobs: serving /debug/vars /debug/pprof /metrics on http://%s\n", addr)
		}
		flush := func() {
			if *metrics == "" {
				return
			}
			f, err := os.Create(*metrics)
			if err != nil {
				fail(err)
			}
			if err := reg.DumpJSON(f); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}
		return reg, flush
	}
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "metrics snapshot file (as written by -metrics)")
	asJSON := fs.Bool("json", false, "re-emit the snapshot as JSON instead of text")
	_ = fs.Parse(args)
	if *in == "" {
		fail(fmt.Errorf("need -in"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	snap, err := obs.ParseSnapshot(f)
	if err != nil {
		fail(err)
	}
	if *asJSON {
		if err := snap.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	fmt.Print(snap.Text())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "timeprint:", err)
	os.Exit(1)
}

func newEncoding(m, b int) *timeprints.Encoding {
	enc, err := timeprints.NewEncoding(m, b)
	if err != nil {
		fail(err)
	}
	return enc
}

func cmdEncode(args []string) {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	m := fs.Int("m", 64, "trace-cycle length")
	b := fs.Int("b", 13, "timestamp width")
	_ = fs.Parse(args)
	enc := newEncoding(*m, *b)
	for i := 0; i < enc.M(); i++ {
		fmt.Printf("TS(%d) = %s\n", i, enc.Timestamp(i))
	}
}

func cmdMinB(args []string) {
	fs := flag.NewFlagSet("minb", flag.ExitOnError)
	m := fs.Int("m", 64, "trace-cycle length")
	_ = fs.Parse(args)
	enc, err := timeprints.MinimalEncoding(*m)
	if err != nil {
		fail(err)
	}
	fmt.Printf("m=%d: minimal b=%d for LI-4 incremental timestamps\n", *m, enc.B())
	fmt.Printf("log size: %d bits per trace-cycle\n", timeprints.BitsPerTraceCycle(enc.B(), *m))
}

func cmdLog(args []string) {
	fs := flag.NewFlagSet("log", flag.ExitOnError)
	m := fs.Int("m", 64, "trace-cycle length")
	b := fs.Int("b", 13, "timestamp width")
	changes := fs.String("changes", "", "comma-separated change cycles")
	in := fs.String("in", "", "wire dump file (0/1 per cycle)")
	vcdFile := fs.String("vcd", "", "VCD file to read the traced signal from")
	signal := fs.String("signal", "", "signal name within the VCD file")
	out := fs.String("out", "", "write binary log to file")
	_ = fs.Parse(args)
	enc := newEncoding(*m, *b)

	var entries []timeprints.LogEntry
	switch {
	case *vcdFile != "":
		if *signal == "" {
			fail(fmt.Errorf("-vcd needs -signal"))
		}
		f, err := os.Open(*vcdFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		doc, err := vcd.Parse(f)
		if err != nil {
			fail(err)
		}
		instants, err := doc.ChangeInstants(*signal)
		if err != nil {
			fail(err)
		}
		whole := doc.End / int64(*m) * int64(*m)
		var inRange []int64
		for _, c := range instants {
			if c < whole {
				inRange = append(inRange, c)
			}
		}
		entries, err = core.LogSignalTrace(enc, inRange, whole)
		if err != nil {
			fail(err)
		}
	case *changes != "":
		var cs []int
		for _, f := range strings.Split(*changes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fail(err)
			}
			cs = append(cs, v)
		}
		entries = append(entries, timeprints.Log(enc, timeprints.SignalFromChanges(*m, cs...)))
	case *in != "":
		raw, err := os.ReadFile(*in)
		if err != nil {
			fail(err)
		}
		logger := timeprints.NewLogger(enc)
		for _, c := range string(raw) {
			switch c {
			case '0', '1':
				if e, done := logger.TickValue(c == '1'); done {
					entries = append(entries, e)
				}
			case ' ', '\n', '\t', '\r':
			default:
				fail(fmt.Errorf("invalid wire character %q", c))
			}
		}
	default:
		fail(fmt.Errorf("need -changes, -in or -vcd"))
	}
	for i, e := range entries {
		fmt.Printf("trace-cycle %d: TP=%s k=%d\n", i, e.TP, e.K)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := timeprints.WriteLog(f, *m, *b, entries); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d entries (%d payload bits) to %s\n",
			len(entries), len(entries)*timeprints.BitsPerTraceCycle(*b, *m), *out)
	}
}

func cmdReconstruct(args []string) {
	fs := flag.NewFlagSet("reconstruct", flag.ExitOnError)
	m := fs.Int("m", 64, "trace-cycle length")
	b := fs.Int("b", 13, "timestamp width")
	tp := fs.String("tp", "", "timeprint, MSB-first binary")
	k := fs.Int("k", 0, "logged change count")
	limit := fs.Int("limit", 10, "max candidates (0 = all)")
	window := fs.String("window", "", "restrict changes to lo:hi")
	deadline := fs.Int("deadline", -1, "require >=1 change before this cycle")
	paired := fs.Bool("paired", false, "changes come in adjacent pairs")
	propSpec := fs.String("prop", "", "property expression, e.g. \"mingap(3); dk(32,3)\"")
	parallel := fs.Int("parallel", 1, "cube-split solver workers (1 = serial, 0 = GOMAXPROCS)")
	oracle := fs.String("oracle", "auto", "backend: auto (cost-model routing), sat, sat-par, sat-inc, decode or brute")
	gauss := fs.Bool("gauss", false, "in-search Gaussian elimination: keep the reduced parity matrix live across decision levels on the sat-inc route")
	obsSetup := obsFlags(fs)
	_ = fs.Parse(args)
	enc := newEncoding(*m, *b)
	reg, flushObs := obsSetup()
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}

	if len(*tp) != *b {
		fail(fmt.Errorf("timeprint must be exactly %d bits", *b))
	}
	tpVec, err := timeprints.ParseVector(*tp)
	if err != nil {
		fail(err)
	}
	entry := timeprints.LogEntry{TP: tpVec, K: *k}

	var props []timeprints.Constraint
	if *window != "" {
		parts := strings.SplitN(*window, ":", 2)
		if len(parts) != 2 {
			fail(fmt.Errorf("window must be lo:hi"))
		}
		lo, err1 := strconv.Atoi(parts[0])
		hi, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			fail(fmt.Errorf("bad window %q", *window))
		}
		props = append(props, timeprints.Window{Lo: lo, Hi: hi})
	}
	if *deadline >= 0 {
		props = append(props, timeprints.ChangeBefore{D: *deadline})
	}
	if *paired {
		props = append(props, timeprints.PairedChanges{})
	}
	if *propSpec != "" {
		p, err := timeprints.ParseProperty(*propSpec)
		if err != nil {
			fail(err)
		}
		props = append(props, p)
	}

	disp, err := timeprints.NewDispatcher(enc, timeprints.DispatchOptions{
		Force:         *oracle,
		Workers:       *parallel,
		GaussInSearch: *gauss,
		Obs:           reg,
	})
	if err != nil {
		fail(err)
	}
	sigs, complete, err := disp.Enumerate(context.Background(), entry, props, *limit)
	if err != nil {
		fail(err)
	}
	for _, s := range sigs {
		fmt.Printf("%s  changes=%v\n", s, s.Changes())
	}
	switch {
	case len(sigs) == 0 && complete:
		fmt.Println("UNSAT: no signal matches the log under the given properties")
	case complete:
		fmt.Printf("%d candidate(s), search space exhausted\n", len(sigs))
	default:
		fmt.Printf("%d candidate(s) shown (limit reached)\n", len(sigs))
	}
	flushObs()
}

func cmdDecode(args []string) {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	in := fs.String("in", "", "binary log file (as written by log -out)")
	_ = fs.Parse(args)
	if *in == "" {
		fail(fmt.Errorf("need -in"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	m, b, entries, err := timeprints.ReadLog(f)
	if err != nil {
		fail(err)
	}
	fmt.Printf("log header: m=%d b=%d, %d trace-cycles, %d payload bits\n",
		m, b, len(entries), len(entries)*timeprints.BitsPerTraceCycle(b, m))
	for i, e := range entries {
		fmt.Printf("trace-cycle %d: TP=%s k=%d\n", i, e.TP, e.K)
	}
}

func cmdSelfcheck(args []string) {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "corpus seed")
	cases := fs.Int("cases", 200, "number of (encoding, entry) cases")
	workers := fs.String("workers", "2,4", "comma-separated worker counts for the parallel oracle")
	obsSetup := obsFlags(fs)
	_ = fs.Parse(args)
	reg, flushObs := obsSetup()
	if reg != nil {
		// Wire-format counters (fault injection serializes logs) live on
		// core's package-level observer.
		core.SetObserver(reg)
		defer core.SetObserver(nil)
	}

	var ws []int
	for _, f := range strings.Split(*workers, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		w, err := strconv.Atoi(f)
		if err != nil || w < 1 {
			fail(fmt.Errorf("bad -workers value %q", f))
		}
		ws = append(ws, w)
	}

	rep, err := diffcheck.Run(diffcheck.Config{Seed: *seed, Cases: *cases, Workers: ws, Obs: reg})
	if err != nil {
		fail(err)
	}
	fmt.Println("differential corpus:", rep.Summary())
	ok := rep.Ok()
	for _, d := range rep.Divergences {
		fmt.Fprintln(os.Stderr, "DIVERGENCE:", d.Error())
	}

	frep, err := diffcheck.InjectFaults(*seed)
	if err != nil {
		fail(err)
	}
	fmt.Println("fault injection:   ", frep.Summary())
	for _, f := range frep.Failures {
		fmt.Fprintln(os.Stderr, "FAULT NOT CONTAINED:", f)
	}
	flushObs() // before the failure exit, so a red run still dumps metrics
	if !ok || !frep.Ok() {
		os.Exit(1)
	}
	fmt.Println("selfcheck: all oracles agree, all faults fail closed")
}

func cmdRate(args []string) {
	fs := flag.NewFlagSet("rate", flag.ExitOnError)
	m := fs.Int("m", 1024, "trace-cycle length")
	b := fs.Int("b", 24, "timestamp width")
	clock := fs.Float64("clock", 100e6, "signal clock in Hz")
	_ = fs.Parse(args)
	fmt.Printf("bits per trace-cycle: %d\n", timeprints.BitsPerTraceCycle(*b, *m))
	fmt.Printf("logging rate at %.0f Hz: %.1f bit/s\n", *clock, timeprints.LogRate(*b, *m, *clock))
}
