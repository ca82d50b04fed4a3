package main

import (
	"bufio"
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

const (
	// clients is the closed-loop client count: one per CPU of the
	// 2-CPU reference machine. Stream devices and debug clients both
	// wait for each reply, so a closed loop is the faithful model.
	clients = 2
	// parts is how many fresh processes share a workload's fixed work,
	// one after another. Identical processes on the reference machine
	// settle into throughput levels up to 1.5x apart (thread placement,
	// memory layout), so the end-to-end metrics are medians over parts.
	parts = 5
	// coldStarts is how many times each part sets up; setup_s is the
	// median over all parts' cold starts, and each part's last daemon
	// serves its timed phase.
	coldStarts = 3
	// minOps keeps tiny runs meaningful: two operations per part.
	minOps = 2 * parts
)

// runConfig is one part's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	part     int
	fleetDir string   // the fleet store, copied for every daemon
	frames   int      // fleet frames per device
	sums     []uint64 // fleet body checksums
	work     string   // scratch directory for store copies
	spans    string   // span JSONL file of a trace run ("" = none)
}

// result is what one part reports to the parent, and, combined over
// parts, what a workload run reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Ops       int                `json:"ops"`
	WallS     float64            `json:"wall_s"`
	Setups    []float64          `json:"setups_s"`
	LatMS     []float32          `json:"latencies_ms,omitempty"` // successful operations'
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Layers    []layerRow         `json:"layers,omitempty"`
	Tail      float64            `json:"tail_percentile"`
	PartOpsS  []float64          `json:"part_ops_s,omitempty"`
}

// opsFor sizes a workload's fixed work for a run of about seconds on
// the reference machine.
func opsFor(w workload, seconds float64) int {
	return max(minOps, int(math.Round(w.rate*seconds)))
}

// runPart performs one part of a workload run: generate its inputs,
// set up the daemon coldStarts times, drive the timed phase with the
// closed-loop clients and check every answer. With trace it adds the
// per-layer metrics: the daemon's own counters and the traced replay.
func runPart(cfg runConfig) (result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	enc, err := newEncoding()
	if err != nil {
		return result{}, err
	}
	in := inputs{seed: cfg.seed, chk: checker{enc: enc}, frames: cfg.frames, sums: cfg.sums}
	n := opsFor(w, cfg.seconds)
	p, err := w.prepare(in, cfg.part*n/parts, (cfg.part+1)*n/parts)
	if err != nil {
		return result{}, err
	}
	pr, err := newProbe(in, p.prime)
	if err != nil {
		return result{}, err
	}
	res := result{Workload: w.name, Seed: cfg.seed, Ops: p.ops}

	var d *daemon
	for i := 0; i < coldStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return res, err
			}
			d = nil
		}
		runtime.GC()
		var took time.Duration
		d, took, err = startDaemon(cfg.fleetDir, filepath.Join(cfg.work, fmt.Sprintf("daemon-%d", i)), pr)
		if err != nil {
			return res, fmt.Errorf("cold start %d: %w", i, err)
		}
		res.Setups = append(res.Setups, took.Seconds())
	}

	before := d.reg.Snapshot()
	cpu0, mem0 := cpuTime(), memStats()
	out := drive(d, p, time.Duration((2*cfg.seconds/parts+5)*float64(time.Second)))
	cpu1, mem1 := cpuTime(), memStats()
	after := d.reg.Snapshot()
	rss, rssErr := peakRSS()
	if err := d.stop(); err != nil {
		return res, err
	}
	if rssErr != nil {
		return res, rssErr
	}

	attempted, failed := out.counts()
	res.Attempted, res.Failed, res.Errors = attempted, failed, out.errs
	res.Correct = failed == 0
	res.WallS = out.wall.Seconds()
	ok := float64(attempted - failed)
	for i, st := range out.state {
		if st == opOK {
			res.LatMS = append(res.LatMS, out.latMS[i])
		}
	}
	res.EndToEnd = map[string]float64{
		"ops_s":          ok / out.wall.Seconds(),
		"trace_cycles_s": float64(out.entries.Load()) / out.wall.Seconds(),
		"latency_p50_ms": percentile(sortedLatencies(res.LatMS), 0.50),
		"peak_rss_mb":    rss,
	}
	if !cfg.trace {
		return res, nil
	}

	res.PerLayer = daemonLayers(after, ok)
	res.PerLayer["process.cpu_ms_per_op"] = ratio((cpu1-cpu0).Seconds()*1e3, ok)
	res.PerLayer["process.alloc_bytes_per_op"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), ok)
	res.PerLayer["process.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6

	// The replay runs twice on fresh store copies, untraced first; the
	// traced run's spans give the breakdown, the pair the overhead.
	plain, err := replayAll(cfg, pr, p, nil)
	if err != nil {
		return res, fmt.Errorf("replay: %w", err)
	}
	tr := newTracer()
	traced, err := replayAll(cfg, pr, p, tr)
	if err != nil {
		return res, fmt.Errorf("traced replay: %w", err)
	}
	ls := aggregate(tr.spans)
	res.Layers = ls.rows
	for k, v := range ls.metrics(traced.rep) {
		res.PerLayer[k] = v
	}
	busy := histDelta(before, after, service.SpanRequest+".ns") + histDelta(before, after, service.SpanStreamFrame+".ns")
	res.PerLayer["trace.coverage"] = ratio(float64(ls.opSelfNS)*ok/float64(p.ops), busy)
	res.PerLayer["trace.overhead"] = traced.took.Seconds()/plain.took.Seconds() - 1
	if cfg.spans != "" {
		if err := tr.writeJSONL(cfg.spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

func sortedLatencies(lat []float32) []float64 {
	s := make([]float64, len(lat))
	for i, v := range lat {
		s[i] = float64(v)
	}
	slices.Sort(s)
	return s
}

// combine folds a workload's parts into one run result: end-to-end
// metrics are medians over parts, except setup_s, the median over all
// cold starts, and latency_p99_ms, read from all parts' latencies
// together; per-layer metrics are medians over parts.
func combine(ps []result) result {
	res := result{Workload: ps[0].Workload, Seed: ps[0].Seed, Correct: true, EndToEnd: map[string]float64{}}
	var lat []float32
	perPart := map[string][]float64{}
	layers := map[string][]float64{}
	rows := map[string]*layerRow{}
	for _, p := range ps {
		res.Correct = res.Correct && p.Correct
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		res.Ops += p.Ops
		res.WallS += p.WallS
		res.Setups = append(res.Setups, p.Setups...)
		lat = append(lat, p.LatMS...)
		if len(res.Errors) < maxErrs {
			res.Errors = append(res.Errors, p.Errors...)
		}
		for k, v := range p.EndToEnd {
			perPart[k] = append(perPart[k], v)
		}
		res.PartOpsS = append(res.PartOpsS, p.EndToEnd["ops_s"])
		for k, v := range p.PerLayer {
			layers[k] = append(layers[k], v)
		}
		for _, l := range p.Layers {
			if rows[l.Layer] == nil {
				rows[l.Layer] = &layerRow{Layer: l.Layer}
			}
			rows[l.Layer].Calls += l.Calls
			rows[l.Layer].SelfNS += l.SelfNS
		}
	}
	for k, vs := range perPart {
		res.EndToEnd[k] = median(vs)
	}
	all := sortedLatencies(lat)
	res.EndToEnd["setup_s"] = median(res.Setups)
	res.EndToEnd["latency_p99_ms"] = percentile(all, 0.99)
	res.Tail = tailPercentile(len(all))
	if len(layers) > 0 {
		res.PerLayer = map[string]float64{}
		for k, vs := range layers {
			res.PerLayer[k] = median(vs)
		}
	}
	for _, r := range rows {
		res.Layers = append(res.Layers, *r)
	}
	slices.SortFunc(res.Layers, func(a, b layerRow) int { return cmp.Compare(b.SelfNS, a.SelfNS) })
	return res
}

// outcome is the client side of one timed phase.
type outcome struct {
	latMS   []float32 // per operation: reply latency when it succeeded
	state   []uint8   // per operation: notRun, opOK or opFailed
	entries atomic.Int64
	// sessionFails counts failed connects and stream ends: no
	// operation's, each is one attempted-and-failed unit of work.
	sessionFails int
	errs         []string // the first few failures
	wall         time.Duration
}

const (
	notRun uint8 = iota
	opOK
	opFailed
)

const maxErrs = 5

// drive runs the timed phase: clients closed-loop clients work through
// the plan's operations; none starts a new one after deadline. Replies
// are checked between requests, outside the latency but inside wall.
func drive(d *daemon, p *plan, deadline time.Duration) *outcome {
	out := &outcome{latMS: make([]float32, p.ops), state: make([]uint8, p.ops)}
	var next atomic.Int64
	var mu sync.Mutex
	fail := func(err error, session bool) {
		mu.Lock()
		defer mu.Unlock()
		if session {
			out.sessionFails++
		}
		if len(out.errs) < maxErrs {
			out.errs = append(out.errs, err.Error())
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := p.connect(d, c)
			if err != nil {
				fail(fmt.Errorf("client %d: connect: %w", c, err), true)
				return
			}
			for k := 0; ; k++ {
				i := c + k*clients
				if !p.perClient {
					i = int(next.Add(1) - 1)
				}
				if i >= p.ops || time.Since(start) > deadline {
					break
				}
				sent := time.Now()
				reply, err := s.send(i)
				lat := time.Since(sent)
				n := 0
				if err == nil {
					n, err = p.check(i, reply)
				}
				if err != nil {
					out.state[i] = opFailed
					fail(fmt.Errorf("op %d: %w", i, err), false)
					continue
				}
				out.state[i], out.latMS[i] = opOK, float32(lat.Seconds()*1e3)
				out.entries.Add(int64(n))
			}
			if err := s.end(); err != nil {
				fail(fmt.Errorf("client %d: end: %w", c, err), true)
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

func (o *outcome) counts() (attempted, failed int) {
	attempted, failed = o.sessionFails, o.sessionFails
	for _, st := range o.state {
		if st != notRun {
			attempted++
		}
		if st == opFailed {
			failed++
		}
	}
	return attempted, failed
}

type replayRun struct {
	rep  *replayer
	took time.Duration
}

// replayAll replays set-up and every operation on a fresh copy of the
// fleet store.
func replayAll(cfg runConfig, pr probe, p *plan, tr *tracer) (replayRun, error) {
	dir := filepath.Join(cfg.work, "replay")
	if err := copyStore(cfg.fleetDir, dir); err != nil {
		return replayRun{}, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	r, err := newReplayer(dir, tr)
	if err != nil {
		return replayRun{}, err
	}
	defer r.close()
	if err := pr.replay(r); err != nil {
		return replayRun{}, err
	}
	for i := 0; i < p.ops; i++ {
		tr.startOp(i)
		err := p.replay(r, i)
		tr.endOp()
		if err != nil {
			return replayRun{}, fmt.Errorf("op %d: %w", i, err)
		}
	}
	return replayRun{rep: r, took: time.Since(start)}, nil
}

func histDelta(before, after obs.Snapshot, name string) float64 {
	return float64(after.Histograms[name].Sum - before.Histograms[name].Sum)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// peakRSS reads the process's resident-set high-water mark (VmHWM) in
// MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
