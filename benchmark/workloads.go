package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/properties"
	"repro/internal/service"
)

// defaultLimit is the daemon's candidate cap when a request sets none.
const defaultLimit = 16

// workload is one traffic mix. Its work is fixed: rate × --seconds
// operations, however fast the daemon serves them, because the solver
// workloads are heavy-tailed and a fixed-time run of a faster daemon
// would reach more of the tail and drift.
type workload struct {
	name string
	why  string
	// rate is the nominal operations per second on the reference
	// machine (see README.md); it only sizes the work.
	rate float64
	// prepare generates, from the seed and before any timing starts,
	// the inputs of operations [lo, hi) of the run; the plan numbers
	// them from 0.
	prepare func(in inputs, lo, hi int) (*plan, error)
}

// inputs is what every workload's generator may draw on.
type inputs struct {
	seed   int64
	chk    checker
	frames int      // fleet frames per device
	sums   []uint64 // fleet body checksums, [device*frames+idx]
}

// plan is a prepared run: the operations, how clients send them, how
// replies are checked, and how the traced run replays them in-process.
type plan struct {
	ops int
	// perClient pins operation i to client i%clients, in order (each
	// client owns one stream); otherwise clients take the next
	// operation from a shared queue.
	perClient bool
	// prime lists warm-up requests of this workload, sent during set-up
	// after the common probe.
	prime []job
	// connect opens client c's session on the daemon.
	connect func(d *daemon, c int) (session, error)
	// check verifies operation i's decoded reply and returns the
	// trace-cycles it reconstructed.
	check func(i int, reply any) (int, error)
	// replay runs operation i through the replayer.
	replay func(r *replayer, i int) error
}

// session is one closed-loop client's connection.
type session interface {
	// send performs operation i and returns its decoded reply.
	send(i int) (any, error)
	end() error
}

// httpSession sends each operation as one HTTP request on the client's
// own keep-alive connection.
type httpSession struct {
	*conn
	op func(c *conn, i int) (any, error)
}

func (s httpSession) send(i int) (any, error) { return s.op(s.conn, i) }
func (s httpSession) end() error              { return s.close() }

func httpConnect(op func(c *conn, i int) (any, error)) func(d *daemon, _ int) (session, error) {
	return func(d *daemon, _ int) (session, error) {
		c, err := d.dial()
		if err != nil {
			return nil, err
		}
		return httpSession{c, op}, nil
	}
}

var workloads = []workload{
	{
		name:    "stream-ingest",
		why:     "2 devices stream 16-entry frames over TCP: wire parsing, GF(2) features, the decode route and store appends; k=0/1 repeats hit the cache, SAT never runs",
		rate:    1300,
		prepare: prepareIngest,
	},
	{
		name:    "hot-requery",
		why:     "Zipf(1.1) repeats of 64 primed TP/k jobs: every request hits the cache, isolating HTTP, JSON and the cache path from solver, store and wire work",
		rate:    25000,
		prepare: prepareHot,
	},
	{
		name:    "forensic-witness",
		why:     "one witness for a k=4..8 burst inside a 48-cycle window: the sat-inc session solver with its heavy-tailed search; decode, store and cache do no work",
		rate:    90,
		prepare: prepareForensic,
	},
	{
		name:    "store-replay",
		why:     "3 in 4 requests list 256 stored frames with bodies, 1 in 4 reconstructs 4 stored frames: store reads and the replay path, the read side of stream-ingest",
		rate:    480,
		prepare: prepareReplay,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// --- reconstruct jobs ---

// job is one POST /v1/reconstruct with an inline (TP, k) entry.
type job struct {
	want  planted
	prop  properties.Property // nil for none
	expr  string
	limit int
	body  []byte
}

type jobRequest struct {
	Encoding   service.EncodingSpec `json:"encoding"`
	TP         string               `json:"tp"`
	K          int                  `json:"k"`
	Properties string               `json:"properties,omitempty"`
	Limit      int                  `json:"limit,omitempty"`
}

type jobReply struct {
	Results []service.StreamEntryResult `json:"results"`
}

// newJob builds the request for want; a window [lo, hi) with hi > lo
// adds that property and asks for a single witness.
func newJob(want planted, lo, hi int) (job, error) {
	j := job{want: want, limit: defaultLimit}
	req := jobRequest{Encoding: spec, TP: want.entry.TP.String(), K: want.entry.K}
	if hi > lo {
		j.prop = properties.Window{Lo: lo, Hi: hi}
		j.expr = fmt.Sprintf("window(%d,%d)", lo, hi)
		j.limit = 1
		req.Properties, req.Limit = j.expr, 1
	}
	body, err := json.Marshal(req)
	j.body = body
	return j, err
}

func (j job) send(c *conn) (any, error) {
	code, body, err := c.do("/v1/reconstruct", j.body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/v1/reconstruct: status %d: %s", code, body)
	}
	var r jobReply
	return r, json.Unmarshal(body, &r)
}

func (j job) check(chk checker, reply any) error {
	r := reply.(jobReply)
	if len(r.Results) != 1 {
		return fmt.Errorf("%d results for one entry", len(r.Results))
	}
	return chk.entry(j.want, r.Results[0], j.prop, j.limit)
}

// replay parses the property on every request, as the daemon does
// before its cache lookup.
func (j job) replay(r *replayer) error {
	var prop properties.Property
	if j.expr != "" {
		p, err := r.parse(j.expr)
		if err != nil {
			return err
		}
		prop = p
	}
	return r.solve(j.want.entry, prop, j.limit)
}

// --- warm-up probe ---

// probe is the warm-up every cold start runs, identical on every
// workload so setup_s means the same thing everywhere: it streams one
// frame (encoding build, decode backend, store append), queries it
// back (store read, replay path) and asks for one window witness (the
// sat-inc session solver), then sends the workload's own primes.
type probe struct {
	chk     checker
	frame   frame
	witness job
	prime   []job
}

const probeDevice = "probe"

func newProbe(in inputs, prime []job) (probe, error) {
	rng := rngFor(in.seed, streamProbe, 0)
	f, err := makeFrame(in.chk.enc, rng)
	if err != nil {
		return probe{}, err
	}
	w, err := newJob(plantIn(in.chk.enc, rng, 5, 0, forensicWindow), 0, forensicWindow)
	return probe{chk: in.chk, frame: f, witness: w, prime: prime}, err
}

type queryRequest struct {
	Device      string               `json:"device"`
	Signal      string               `json:"signal"`
	FromEpochUS int64                `json:"from_epoch_us,omitempty"`
	ToEpochUS   int64                `json:"to_epoch_us,omitempty"`
	Encoding    service.EncodingSpec `json:"encoding"`
}

type queryReply struct {
	Records []struct {
		EpochUS        int64                       `json:"epoch_us"`
		TraceCycleBase int64                       `json:"trace_cycle_base"`
		Results        []service.StreamEntryResult `json:"results"`
	} `json:"records"`
	Truncated bool `json:"truncated"`
}

func (p probe) run(d *daemon) error {
	sc, err := service.DialStream(d.streamAddr, 10*time.Second)
	if err != nil {
		return err
	}
	defer sc.Close()
	ack, err := sc.Hello(service.StreamHello{Device: probeDevice, Signal: fleetSignal, Encoding: spec})
	if err != nil {
		return err
	}
	msg, err := sc.SendFrame(p.frame.body)
	if err == nil && msg.Status != 0 {
		err = fmt.Errorf("probe frame: status %d: %s", msg.Status, msg.Error)
	}
	if err == nil {
		err = p.chk.frame(p.frame, msg.Results, ack.NextTraceCycle)
	}
	if err != nil {
		return err
	}
	if _, err := sc.End(); err != nil {
		return err
	}
	c, err := d.dial()
	if err != nil {
		return err
	}
	defer c.close()
	var qr queryReply
	if err := c.call("/v1/query", queryRequest{Device: probeDevice, Signal: fleetSignal, Encoding: spec}, &qr); err != nil {
		return err
	}
	if len(qr.Records) != 1 {
		return fmt.Errorf("probe query returned %d records, want 1", len(qr.Records))
	}
	if err := p.chk.frame(p.frame, qr.Records[0].Results, 0); err != nil {
		return err
	}
	for _, j := range append([]job{p.witness}, p.prime...) {
		reply, err := j.send(c)
		if err != nil {
			return err
		}
		if err := j.check(p.chk, reply); err != nil {
			return err
		}
	}
	return nil
}

// replay mirrors run through the replayer (as set-up, request -1).
func (p probe) replay(r *replayer) error {
	r.tr.startOp(-1)
	defer r.tr.endOp()
	entries, err := r.readLog(p.frame.body)
	if err != nil {
		return err
	}
	if err := r.solveAll(entries); err != nil {
		return err
	}
	if err := r.append(logstore.Record{Device: probeDevice, Signal: fleetSignal, Epoch: time.Now().UnixMicro(), Body: p.frame.body}); err != nil {
		return err
	}
	recs, err := r.query(logstore.Query{Device: probeDevice, Signal: fleetSignal, From: 0, To: math.MaxInt64, Limit: 257})
	if err != nil {
		return err
	}
	for _, rec := range recs {
		entries, err := r.readLog(rec.Body)
		if err != nil {
			return err
		}
		if err := r.solveAll(entries); err != nil {
			return err
		}
	}
	for _, j := range append([]job{p.witness}, p.prime...) {
		if err := j.replay(r); err != nil {
			return err
		}
	}
	return nil
}

// --- stream-ingest ---

func prepareIngest(in inputs, lo, hi int) (*plan, error) {
	n := hi - lo
	frames := make([]frame, n)
	for i := range frames {
		f, err := makeFrame(in.chk.enc, rngFor(in.seed, streamIngest, lo+i))
		if err != nil {
			return nil, err
		}
		frames[i] = f
	}
	device := func(i int) string { return fmt.Sprintf("ingest-%d", i%clients) }
	base := func(i int) int { return i / clients * frameEntries }
	return &plan{
		ops:       n,
		perClient: true,
		connect: func(d *daemon, c int) (session, error) {
			sc, err := service.DialStream(d.streamAddr, 10*time.Second)
			if err != nil {
				return nil, err
			}
			ack, err := sc.Hello(service.StreamHello{Device: device(c), Signal: fleetSignal, Encoding: spec})
			if err == nil && ack.NextTraceCycle != 0 {
				err = fmt.Errorf("fresh stream resumes at trace-cycle %d", ack.NextTraceCycle)
			}
			if err != nil {
				sc.Close()
				return nil, err
			}
			return &streamSession{sc: sc, frames: frames}, nil
		},
		check: func(i int, reply any) (int, error) {
			msg := reply.(service.StreamMsg)
			if msg.TraceCycleBase != base(i) {
				return 0, fmt.Errorf("frame %d acked at trace-cycle %d, want %d", i/clients, msg.TraceCycleBase, base(i))
			}
			return frameEntries, in.chk.frame(frames[i], msg.Results, base(i))
		},
		replay: func(r *replayer, i int) error {
			entries, err := r.readLog(frames[i].body)
			if err != nil {
				return err
			}
			if err := r.solveAll(entries); err != nil {
				return err
			}
			return r.append(logstore.Record{
				Device: device(i), Signal: fleetSignal, Epoch: time.Now().UnixMicro(),
				TraceCycleBase: int64(base(i)), Body: frames[i].body,
			})
		},
	}, nil
}

type streamSession struct {
	sc     *service.StreamClient
	frames []frame
	sent   int
}

func (s *streamSession) send(i int) (any, error) {
	msg, err := s.sc.SendFrame(s.frames[i].body)
	if err != nil {
		return nil, err
	}
	if msg.Status != 0 || msg.State != "" {
		return nil, fmt.Errorf("frame rejected: state %q status %d: %s", msg.State, msg.Status, msg.Error)
	}
	s.sent++
	return msg, nil
}

// end closes the stream cleanly and checks the server counted every
// frame this client sent.
func (s *streamSession) end() error {
	defer s.sc.Close()
	done, err := s.sc.End()
	if err != nil {
		return err
	}
	if done.Frames != s.sent || done.Entries != s.sent*frameEntries {
		return fmt.Errorf("stream done reports %d frames / %d entries, sent %d / %d", done.Frames, done.Entries, s.sent, s.sent*frameEntries)
	}
	return nil
}

// --- hot-requery ---

const hotEntries = 64

// prepareHot primes entries with k = 1 or 2, alternating by popularity
// rank: each has exactly one candidate, so every reply is the same size
// and the request cost does not depend on which entries a seed drew.
func prepareHot(in inputs, lo, hi int) (*plan, error) {
	rng := rngFor(in.seed, streamHot, 0)
	prime := make([]job, 0, hotEntries)
	seen := map[string]bool{}
	for len(prime) < hotEntries {
		p := plantIn(in.chk.enc, rng, 1+len(prime)%2, 0, geomM)
		key := fmt.Sprintf("%s|%d", p.entry.TP, p.entry.K)
		if seen[key] {
			continue
		}
		seen[key] = true
		j, err := newJob(p, 0, 0)
		if err != nil {
			return nil, err
		}
		prime = append(prime, j)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, hotEntries-1)
	picks := make([]uint8, hi)
	for i := range picks {
		picks[i] = uint8(zipf.Uint64())
	}
	picks = picks[lo:]
	return &plan{
		ops:     hi - lo,
		prime:   prime,
		connect: httpConnect(func(c *conn, i int) (any, error) { return prime[picks[i]].send(c) }),
		check: func(i int, reply any) (int, error) {
			return 1, prime[picks[i]].check(in.chk, reply)
		},
		replay: func(r *replayer, i int) error { return prime[picks[i]].replay(r) },
	}, nil
}

// --- forensic-witness ---

const forensicWindow = 48

func prepareForensic(in inputs, lo, hi int) (*plan, error) {
	jobs := make([]job, hi-lo)
	for i := range jobs {
		rng := rngFor(in.seed, streamForensic, lo+i)
		k := 4 + rng.IntN(5)
		from := rng.IntN(geomM - forensicWindow + 1)
		j, err := newJob(plantIn(in.chk.enc, rng, k, from, from+forensicWindow), from, from+forensicWindow)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return &plan{
		ops:     len(jobs),
		connect: httpConnect(func(c *conn, i int) (any, error) { return jobs[i].send(c) }),
		check: func(i int, reply any) (int, error) {
			return 1, jobs[i].check(in.chk, reply)
		},
		replay: func(r *replayer, i int) error { return jobs[i].replay(r) },
	}, nil
}

// --- store-replay ---

const (
	logsWindow  = 256
	queryWindow = 4
)

// replayOp is one store-replay request over fleet device d's records
// [idx, idx+window).
type replayOp struct {
	logs bool
	d    int
	idx  int
}

func (o replayOp) window() int {
	if o.logs {
		return logsWindow
	}
	return queryWindow
}

type logsReply struct {
	Records []struct {
		EpochUS        int64  `json:"epoch_us"`
		TraceCycleBase int64  `json:"trace_cycle_base"`
		Entries        int    `json:"entries"`
		Body           []byte `json:"body"`
	} `json:"records"`
	Truncated bool `json:"truncated"`
}

func replayOps(in inputs, lo, hi int) []replayOp {
	ops := make([]replayOp, hi-lo)
	for i := range ops {
		rng := rngFor(in.seed, streamReplay, lo+i)
		o := replayOp{logs: rng.IntN(4) != 0, d: rng.IntN(fleetDevices)}
		o.idx = rng.IntN(in.frames - o.window() + 1)
		ops[i] = o
	}
	return ops
}

func prepareReplay(in inputs, lo, hi int) (*plan, error) {
	if in.frames < logsWindow {
		return nil, fmt.Errorf("store-replay needs at least %d fleet frames per device, have %d", logsWindow, in.frames)
	}
	ops := replayOps(in, lo, hi)
	send := func(c *conn, o replayOp) (any, error) {
		from, to := fleetEpoch(o.idx), fleetEpoch(o.idx+o.window()-1)
		if o.logs {
			q := url.Values{
				"device": {fleetDevice(o.d)}, "signal": {fleetSignal}, "include_bodies": {"1"},
				"from_epoch_us": {fmt.Sprint(from)}, "to_epoch_us": {fmt.Sprint(to)},
			}
			code, body, err := c.do("/v1/logs?"+q.Encode(), nil)
			if err != nil {
				return nil, err
			}
			if code != http.StatusOK {
				return nil, fmt.Errorf("/v1/logs: status %d: %s", code, body)
			}
			var r logsReply
			return r, json.Unmarshal(body, &r)
		}
		var r queryReply
		err := c.call("/v1/query", queryRequest{
			Device: fleetDevice(o.d), Signal: fleetSignal, FromEpochUS: from, ToEpochUS: to, Encoding: spec,
		}, &r)
		return r, err
	}
	check := func(i int, reply any) (int, error) {
		o := ops[i]
		if o.logs {
			r := reply.(logsReply)
			if len(r.Records) != logsWindow || r.Truncated {
				return 0, fmt.Errorf("/v1/logs returned %d records (truncated %t), want %d", len(r.Records), r.Truncated, logsWindow)
			}
			for j, rec := range r.Records {
				idx := o.idx + j
				if rec.EpochUS != fleetEpoch(idx) || rec.TraceCycleBase != int64(idx*frameEntries) || rec.Entries != frameEntries {
					return 0, fmt.Errorf("record %d of %s listed at epoch %d base %d with %d entries", idx, fleetDevice(o.d), rec.EpochUS, rec.TraceCycleBase, rec.Entries)
				}
				if bodySum(rec.Body) != in.sums[o.d*in.frames+idx] {
					return 0, fmt.Errorf("record %d of %s: body differs from the frame written", idx, fleetDevice(o.d))
				}
			}
			return 0, nil
		}
		r := reply.(queryReply)
		if len(r.Records) != queryWindow || r.Truncated {
			return 0, fmt.Errorf("/v1/query returned %d records (truncated %t), want %d", len(r.Records), r.Truncated, queryWindow)
		}
		for j, rec := range r.Records {
			idx := o.idx + j
			if rec.EpochUS != fleetEpoch(idx) || rec.TraceCycleBase != int64(idx*frameEntries) {
				return 0, fmt.Errorf("record %d of %s replayed at epoch %d base %d", idx, fleetDevice(o.d), rec.EpochUS, rec.TraceCycleBase)
			}
			f, err := fleetFrame(in.chk.enc, in.seed, o.d, idx)
			if err != nil {
				return 0, err
			}
			if err := in.chk.frame(f, rec.Results, idx*frameEntries); err != nil {
				return 0, fmt.Errorf("record %d of %s: %w", idx, fleetDevice(o.d), err)
			}
		}
		return queryWindow * frameEntries, nil
	}
	return &plan{
		ops:     len(ops),
		connect: httpConnect(func(c *conn, i int) (any, error) { return send(c, ops[i]) }),
		check:   check,
		replay: func(r *replayer, i int) error {
			o := ops[i]
			// The daemon asks the store for one record past its cap:
			// /v1/logs defaults to 1000, /v1/query to 256.
			limit := 1001
			if !o.logs {
				limit = 257
			}
			recs, err := r.query(logstore.Query{
				Device: fleetDevice(o.d), Signal: fleetSignal,
				From: fleetEpoch(o.idx), To: fleetEpoch(o.idx + o.window() - 1), Limit: limit,
			})
			if err != nil {
				return err
			}
			for _, rec := range recs {
				if o.logs {
					if _, _, _, err := core.PeekLogHeader(rec.Body); err != nil {
						return err
					}
					continue
				}
				entries, err := r.readLog(rec.Body)
				if err != nil {
					return err
				}
				if err := r.solveAll(entries); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}
