package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/reconstruct"
	"repro/internal/sat"
	"repro/internal/trace"
)

// jobRequest is the JSON job spec of /v1/reconstruct and /v1/count.
// Exactly one of (TP, K) or Log must be present: TP/K queries a single
// entry given inline; Log carries a whole core.WriteLog wire-format
// log (base64 in JSON, raw body for non-JSON content types) whose
// entries are queried individually.
type jobRequest struct {
	Encoding EncodingSpec `json:"encoding"`
	// TP is a single timeprint, MSB-first bits of width B; K its
	// change count.
	TP string `json:"tp,omitempty"`
	K  int    `json:"k,omitempty"`
	// Log is a wire-format timeprint log (base64-encoded in JSON).
	Log []byte `json:"log,omitempty"`
	// Cycles selects trace-cycle indices of Log (default: all); at
	// most as many as Log has entries, and only with a Log.
	Cycles []int `json:"cycles,omitempty"`
	// Properties is a temporal-property expression in the
	// internal/properties grammar, e.g. "mingap(3); dk(32,3)".
	Properties string `json:"properties,omitempty"`
	// Limit caps candidates per entry: 0 = endpoint default,
	// negative = exhaustive.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline
	// (capped by Config.MaxTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Device, Signal and EpochUS label a wire-log job for the durable
	// log store (Config.Store): a successfully served Log is teed into
	// the store under this identity. Unset fields default to
	// "unknown-device"/"unknown-signal"/ingest time; ignored without a
	// store or for inline TP/K jobs.
	Device  string `json:"device,omitempty"`
	Signal  string `json:"signal,omitempty"`
	EpochUS int64  `json:"epoch_us,omitempty"`
}

// entryResponse is the per-trace-cycle result of a job.
type entryResponse struct {
	TraceCycle int    `json:"trace_cycle"`
	TP         string `json:"tp"`
	K          int    `json:"k"`
	solveResult
	// Cached reports the result came from the LRU; Coalesced that it
	// was shared with a concurrent identical request's solve.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
}

type jobResponse struct {
	M       int             `json:"m"`
	B       int             `json:"b"`
	Results []entryResponse `json:"results"`
}

// httpError carries a status code through the solve path to the
// response writer.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	s.obs.Counter(MetricReqReconstruct).Inc()
	s.handleJob(w, r, false)
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	s.obs.Counter(MetricReqCount).Inc()
	s.handleJob(w, r, true)
}

// handleJob is the shared reconstruct/count path; countOnly drops the
// candidate materialization from the response (the cache keys differ,
// so the two endpoints never alias). Every failure is the request's
// status.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, countOnly bool) {
	defer s.obs.StartSpan(SpanRequest).End()
	resp, err := s.runJob(r, countOnly)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) runJob(r *http.Request, countOnly bool) (jobResponse, error) {
	job, err := s.parseJob(r)
	if err != nil {
		return jobResponse{}, err
	}
	var wire *wireLog
	if job.Log != nil {
		if wire, err = decodeWire(job.Log); err != nil {
			return jobResponse{}, badRequest("wire log: %v", err)
		}
	}
	spec, err := resolveSpec(job.Encoding, wire)
	if err != nil {
		return jobResponse{}, err
	}
	plan, err := planJob(spec, jobSpec{
		TP: job.TP, K: job.K, Cycles: job.Cycles,
		Properties: job.Properties, Limit: job.Limit, CountOnly: countOnly,
	}, wire)
	if err != nil {
		return jobResponse{}, err
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(job.TimeoutMS))
	defer cancel()
	results, err := s.runItems(ctx, s.sessions.get(spec), plan.items, plan.opts, 0)
	if err != nil {
		return jobResponse{}, err
	}
	if wire != nil {
		// Tee the wire body into the durable store only after the whole
		// job succeeded: shed/failed requests are re-sent by clients, so
		// teeing earlier would store duplicates the counters can't
		// explain.
		s.storeTee(job.Device, job.Signal, job.EpochUS, 0, job.Log)
	}
	return jobResponse{M: spec.M, B: spec.B, Results: results}, nil
}

// solveEntry answers one work item through the cache → singleflight →
// admission → solver pipeline; it is the per-item step of every ingest
// path. admit supplies the admission discipline: unary requests queue
// per solve, batch entries draw on the batch's atomic reservation.
func (s *Server) solveEntry(ctx context.Context, sess *session, it workItem, opts solveOpts, admit admitFunc) (entryResponse, error) {
	entry := it.entry
	er := entryResponse{TraceCycle: it.tc, TP: entry.TP.String(), K: entry.K}
	key := cacheKey(sess.spec.key(), entry, opts.propKey, opts.limit, opts.countOnly)

	if res, ok := s.cache.get(key); ok {
		er.solveResult, er.Cached = res, true
		return er, nil
	}
	res, shared, err := s.flight.do(ctx, key, func() (solveResult, error) {
		res, err := s.solve(ctx, sess, entry, opts, admit)
		if err == nil {
			s.cache.add(key, res)
		}
		return res, err
	})
	if err != nil {
		return er, err
	}
	if shared {
		s.obs.Counter(MetricCoalesced).Inc()
	}
	er.solveResult, er.Coalesced = res, shared
	return er, nil
}

// solve answers one query under admission control and the request
// deadline, routed by the session's dispatcher to the cheapest sound
// backend (or the one pinned by Config.Oracle).
func (s *Server) solve(ctx context.Context, sess *session, entry core.LogEntry, opts solveOpts, admit admitFunc) (solveResult, error) {
	release, err := admit(ctx)
	if err != nil {
		if errors.Is(err, errQueueFull) {
			return solveResult{}, &httpError{code: http.StatusTooManyRequests, msg: "admission queue full, retry later"}
		}
		return solveResult{}, s.deadlineError(err)
	}
	defer release()
	defer s.obs.StartSpan(SpanSolve).End()
	s.obs.Counter(MetricSolves).Inc()

	if s.solveDelay > 0 {
		select {
		case <-time.After(s.solveDelay):
		case <-ctx.Done():
			return solveResult{}, s.deadlineError(ctx.Err())
		}
	}

	// The planner's exhaustive limit -1 is reconstruct's 0.
	limit := max(opts.limit, 0)

	disp, err := sess.dispatcher(s.dispatchOptions())
	if err != nil {
		return solveResult{}, badRequest("encoding: %v", err)
	}
	sigs, exhausted, dec, err := disp.EnumerateRouted(ctx, entry, opts.constraints, limit)
	if dec.Chosen == reconstruct.RouteSession && dec.FellBack {
		// A solve routed to the incremental session that it could not
		// express (constraint the session cannot guard) and re-ran on
		// one-shot SAT.
		s.obs.Counter(MetricSessionFallback).Inc()
	}
	if err != nil {
		if errors.Is(err, core.ErrWidth) || errors.Is(err, core.ErrKRange) {
			return solveResult{}, badRequest("%v", err)
		}
		return solveResult{}, s.solveError(ctx, err)
	}
	return s.solveResultFrom(sigs, exhausted, opts.countOnly), nil
}

// dispatchOptions renders the server config as the per-session
// dispatcher configuration.
func (s *Server) dispatchOptions() reconstruct.DispatchOptions {
	return reconstruct.DispatchOptions{
		Force:         s.cfg.Oracle,
		Workers:       1,
		SessionMaxK:   s.cfg.SessionMaxK,
		GaussInSearch: s.cfg.GaussInSearch,
		MaxConflicts:  s.cfg.MaxConflicts,
		Obs:           s.obs,
	}
}

// solveError maps enumeration errors to HTTP semantics, shared by the
// incremental and one-shot paths.
func (s *Server) solveError(ctx context.Context, err error) error {
	switch {
	case errors.Is(err, sat.ErrInterrupted):
		return s.deadlineError(ctx.Err())
	case errors.Is(err, sat.ErrBudget):
		return &httpError{code: http.StatusServiceUnavailable, msg: "solver conflict budget exhausted"}
	}
	return err
}

func (s *Server) solveResultFrom(sigs []core.Signal, exhausted, countOnly bool) solveResult {
	res := solveResult{Count: len(sigs), Exhausted: exhausted}
	if !countOnly {
		res.Candidates = make([]string, len(sigs))
		res.Changes = make([][]int, len(sigs))
		for i, sig := range sigs {
			res.Candidates[i] = sig.String()
			res.Changes[i] = sig.Changes()
		}
	}
	return res
}

// deadlineError maps a context error to the HTTP layer: an expired
// deadline is 504 (and counted), a client cancellation is 499-style
// (reported as 504 too — the connection is gone anyway).
func (s *Server) deadlineError(err error) error {
	s.obs.Counter(MetricTimeouts).Inc()
	msg := "request deadline exceeded before the solve finished"
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		msg = "request cancelled before the solve finished"
	}
	return &httpError{code: http.StatusGatewayTimeout, msg: msg}
}

// cacheKey hashes the canonical query identity: encoding session key,
// timeprint, k, properties, limit and operation. Two requests agree on
// the key iff the engine would do identical work for them.
func cacheKey(sessKey string, entry core.LogEntry, propKey string, limit int, countOnly bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|tp=%s|k=%d|props=%s|limit=%d|count=%t", sessKey, entry.TP.Key(), entry.K, propKey, limit, countOnly)
	return hex.EncodeToString(h.Sum(nil))
}

// timeout resolves the effective per-request deadline.
func (s *Server) timeout(requestMS int) time.Duration {
	d := s.cfg.DefaultTimeout
	if requestMS > 0 {
		d = time.Duration(requestMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// parseJob reads a job from either a JSON body or a raw wire-format
// body with query-parameter options.
func (s *Server) parseJob(r *http.Request) (jobRequest, error) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		var job jobRequest
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&job); err != nil {
			return jobRequest{}, badRequest("json body: %v", err)
		}
		return job, nil
	}
	// Raw wire-format body; options ride in the query string.
	raw, err := io.ReadAll(body)
	if err != nil {
		return jobRequest{}, badRequest("body: %v", err)
	}
	if len(raw) == 0 {
		return jobRequest{}, badRequest("empty body")
	}
	job := jobRequest{Log: raw}
	q := r.URL.Query()
	job.Encoding.Scheme = q.Get("scheme")
	job.Properties = q.Get("properties")
	job.Device = q.Get("device")
	job.Signal = q.Get("signal")
	for name, dst := range map[string]*int{
		"m": &job.Encoding.M, "b": &job.Encoding.B, "depth": &job.Encoding.Depth,
		"limit": &job.Limit, "timeout_ms": &job.TimeoutMS,
	} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return jobRequest{}, badRequest("query %s=%q: %v", name, v, err)
			}
			*dst = n
		}
	}
	for name, dst := range map[string]*int64{"epoch_us": &job.EpochUS, "seed": &job.Encoding.Seed} {
		if v := q.Get(name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return jobRequest{}, badRequest("query %s=%q: %v", name, v, err)
			}
			*dst = n
		}
	}
	if v := q.Get("cycles"); v != "" {
		for _, part := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return jobRequest{}, badRequest("query cycles=%q: %v", v, err)
			}
			job.Cycles = append(job.Cycles, n)
		}
	}
	return job, nil
}

// compareRequest carries two wire logs recorded under the same trace
// parameters; /v1/compare diffs them trace-cycle by trace-cycle (the
// paper's Section 5.2.2 hardware-vs-simulation check as a service).
type compareRequest struct {
	Encoding EncodingSpec `json:"encoding"`
	// Ref and Obs are core.WriteLog wire logs (base64 in JSON): the
	// reference (simulation) side and the observed (hardware) side.
	Ref []byte `json:"ref"`
	Obs []byte `json:"obs"`
}

type compareMismatch struct {
	TraceCycle int  `json:"trace_cycle"`
	KDiffers   bool `json:"k_differs"`
	TPDiffers  bool `json:"tp_differs"`
	// StartS is the absolute start time of the trace-cycle, present
	// when the session's clock rate is known.
	StartS *float64 `json:"start_s,omitempty"`
}

type compareResponse struct {
	M          int               `json:"m"`
	B          int               `json:"b"`
	Cycles     int               `json:"cycles_compared"`
	Mismatches []compareMismatch `json:"mismatches"`
	// First is the earliest mismatching trace-cycle, -1 when the logs
	// agree — the localization answer a debug flow consumes first.
	First int `json:"first_mismatch"`
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	defer s.obs.StartSpan(SpanRequest).End()
	s.obs.Counter(MetricReqCompare).Inc()
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	var req compareRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, badRequest("json body: %v", err))
		return
	}
	if len(req.Ref) == 0 || len(req.Obs) == 0 {
		s.writeError(w, badRequest("need both ref and obs wire logs"))
		return
	}
	refLog, err := decodeWire(req.Ref)
	if err != nil {
		s.writeError(w, badRequest("ref log: %v", err))
		return
	}
	obsLog, err := decodeWire(req.Obs)
	if err != nil {
		s.writeError(w, badRequest("obs log: %v", err))
		return
	}
	if refLog.m != obsLog.m || refLog.b != obsLog.b {
		s.writeError(w, badRequest("logs disagree on geometry: ref (m=%d, b=%d) vs obs (m=%d, b=%d)", refLog.m, refLog.b, obsLog.m, obsLog.b))
		return
	}
	spec, err := resolveSpec(req.Encoding, refLog)
	if err == nil {
		err = refLog.fits(spec)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Register the session (shared with reconstruct/count requests for
	// the same signal, and counted by the sessions gauge), then build
	// the two aligned stores.
	s.sessions.get(spec)
	ref := trace.NewStore("ref", spec.ClockHz, spec.M, spec.B)
	obsStore := trace.NewStore("obs", spec.ClockHz, spec.M, spec.B)
	ref.Epoch, obsStore.Epoch = spec.Epoch, spec.Epoch
	ref.Obs = s.obs
	if err := ref.Append(refLog.entries...); err != nil {
		s.writeError(w, badRequest("ref log: %v", err))
		return
	}
	if err := obsStore.Append(obsLog.entries...); err != nil {
		s.writeError(w, badRequest("obs log: %v", err))
		return
	}
	mms, err := trace.Compare(ref, obsStore)
	if err != nil {
		s.writeError(w, badRequest("compare: %v", err))
		return
	}
	n := min(len(refLog.entries), len(obsLog.entries))
	resp := compareResponse{
		M: spec.M, B: spec.B, Cycles: n,
		Mismatches: make([]compareMismatch, 0, len(mms)),
		First:      trace.FirstMismatch(mms),
	}
	for _, mm := range mms {
		cm := compareMismatch{TraceCycle: mm.TraceCycle, KDiffers: mm.KDiffers, TPDiffers: mm.TPDiffers}
		if spec.ClockHz > 0 {
			t := ref.TraceCycleStart(mm.TraceCycle)
			cm.StartS = &t
		}
		resp.Mismatches = append(resp.Mismatches, cm)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]string{"status": status})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorStatus maps an error to its HTTP status and message (500 unless
// it is an *httpError): writeError's response, a batch job's status, a
// stream frame's error line.
func errorStatus(err error) (int, string) {
	he := &httpError{code: http.StatusInternalServerError, msg: err.Error()}
	errors.As(err, &he)
	return he.code, he.msg
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	code, msg := errorStatus(err)
	if code == http.StatusTooManyRequests {
		// The client should back off for about one solve's worth of
		// queue drain; 1s is the conventional coarse hint.
		w.Header().Set("Retry-After", "1")
	} else {
		s.obs.Counter(MetricErrors).Inc()
	}
	s.writeJSON(w, code, map[string]string{"error": msg})
}
