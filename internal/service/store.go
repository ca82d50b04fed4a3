package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
)

// Durable log store integration. When Config.Store is set, timeprintd
// tees every successfully ingested wire log — unary request bodies and
// streaming-ingest frames — into the store, and serves two forensic
// endpoints over it:
//
//	GET  /v1/logs    list stored streams, or range-list one stream's
//	                 records (epoch, trace-cycle base, geometry, and
//	                 optionally the raw frame)
//	POST /v1/query   historical reconstruction: fetch stored frames for
//	                 a (device, signal, epoch-range) and replay them
//	                 through the warm session/dispatcher pipeline
//	                 exactly like the request-body path
//
// The replay guarantee is literal: /v1/query feeds each stored frame's
// entries through the same solveEntry pipeline (cache → singleflight →
// admission → dispatcher) a request carrying the frame in its body
// would hit, so reconstruction results are bit-identical to the
// request-body path — the store-vs-body equivalence test pins this.

// storeTee persists one successfully served wire log. Tee failures are
// counted but never fail the serving request: the reconstruction
// answer is already correct, and the store's own recovery machinery
// reports loss on the next open.
func (s *Server) storeTee(device, signal string, epochUS int64, tcBase int64, body []byte) {
	if s.store == nil {
		return
	}
	if device == "" {
		device = "unknown-device"
	}
	if signal == "" {
		signal = "unknown-signal"
	}
	if epochUS == 0 {
		epochUS = time.Now().UnixMicro()
	}
	_, err := s.store.Append(logstore.Record{
		Device:         device,
		Signal:         signal,
		Epoch:          epochUS,
		TraceCycleBase: tcBase,
		Body:           body,
	})
	if err != nil {
		s.obs.Counter(MetricStoreTeeErrors).Inc()
		return
	}
	s.obs.Counter(MetricStoreTees).Inc()
}

// logsKeySummary is one stored stream in the keyless /v1/logs listing.
type logsKeySummary struct {
	Device     string `json:"device"`
	Signal     string `json:"signal"`
	Records    int    `json:"records"`
	MinEpochUS int64  `json:"min_epoch_us"`
	MaxEpochUS int64  `json:"max_epoch_us"`
}

// logsRecord is one stored frame in a /v1/logs range listing. M, B and
// Entries come from the frame header (core.PeekLogHeader) — the frame
// is not decoded. Body is included only with include_bodies=1.
type logsRecord struct {
	EpochUS        int64  `json:"epoch_us"`
	TraceCycleBase int64  `json:"trace_cycle_base"`
	Bytes          int    `json:"bytes"`
	M              int    `json:"m"`
	B              int    `json:"b"`
	Entries        int    `json:"entries"`
	Body           []byte `json:"body,omitempty"`
}

type logsResponse struct {
	Keys      []logsKeySummary `json:"keys,omitempty"`
	Device    string           `json:"device,omitempty"`
	Signal    string           `json:"signal,omitempty"`
	Records   []logsRecord     `json:"records,omitempty"`
	Truncated bool             `json:"truncated,omitempty"`
}

// epochRange parses from/to query or body values: zero To means
// unbounded (epochs are Unix microseconds, so 0 is the natural floor).
func epochRange(from, to int64) (int64, int64) {
	if to == 0 {
		to = math.MaxInt64
	}
	return from, to
}

// Server-side ceilings on how many stored records one request may
// return or replay. Both endpoints also push their (capped) limit into
// the store scan itself — logstore.Query.Limit stops the walk at
// limit+1 matches — so an unbounded epoch range over a large stored
// stream never materializes the whole stream in memory; the +1 record
// is what flips the response's Truncated flag.
const (
	maxLogsLimit    = 10000
	maxQueryRecords = 4096
)

// handleStoreLogs serves GET /v1/logs. Without device+signal it lists
// the stored streams; with both it range-lists that stream's records.
func (s *Server) handleStoreLogs(w http.ResponseWriter, r *http.Request) {
	defer s.obs.StartSpan(SpanRequest).End()
	s.obs.Counter(MetricReqLogs).Inc()
	q := r.URL.Query()
	device, signal := q.Get("device"), q.Get("signal")
	if device == "" && signal == "" {
		keys := s.store.Keys()
		resp := logsResponse{Keys: make([]logsKeySummary, len(keys))}
		for i, k := range keys {
			resp.Keys[i] = logsKeySummary{
				Device: k.Device, Signal: k.Signal, Records: k.Records,
				MinEpochUS: k.MinEpoch, MaxEpochUS: k.MaxEpoch,
			}
		}
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	if device == "" || signal == "" {
		s.writeError(w, badRequest("need both device and signal (or neither, for the stream listing)"))
		return
	}
	// Parsed in a fixed order, so a request with two bad values always
	// reports the first.
	var from, to int64
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"from_epoch_us", &from}, {"to_epoch_us", &to}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				s.writeError(w, badRequest("query %s=%q: %v", p.name, v, err))
				return
			}
			*p.dst = n
		}
	}
	from, to = epochRange(from, to)
	limit := 1000
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.writeError(w, badRequest("query limit=%q must be a positive integer", v))
			return
		}
		limit = n
	}
	if limit > maxLogsLimit {
		limit = maxLogsLimit
	}
	includeBodies := q.Get("include_bodies") == "1" || q.Get("include_bodies") == "true"

	recs, err := s.store.Query(logstore.Query{
		Device: device, Signal: signal, From: from, To: to, Limit: limit + 1,
	})
	if err != nil {
		s.writeError(w, s.storeError(err))
		return
	}
	resp := logsResponse{Device: device, Signal: signal}
	for _, rec := range recs {
		if len(resp.Records) >= limit {
			resp.Truncated = true
			break
		}
		lr := logsRecord{
			EpochUS:        rec.Epoch,
			TraceCycleBase: rec.TraceCycleBase,
			Bytes:          len(rec.Body),
		}
		// The header was validated on append; a failure here means the
		// store served bytes it should not have — fail closed.
		m, b, n, err := core.PeekLogHeader(rec.Body)
		if err != nil {
			s.writeError(w, s.storeError(err))
			return
		}
		lr.M, lr.B, lr.Entries = m, b, n
		if includeBodies {
			lr.Body = rec.Body
		}
		resp.Records = append(resp.Records, lr)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// queryRequest is the JSON body of POST /v1/query: a (device, signal,
// epoch-range) selection plus the same solve options a request-body
// job carries. ToEpochUS == 0 means unbounded.
type queryRequest struct {
	Device      string       `json:"device"`
	Signal      string       `json:"signal"`
	FromEpochUS int64        `json:"from_epoch_us,omitempty"`
	ToEpochUS   int64        `json:"to_epoch_us,omitempty"`
	Encoding    EncodingSpec `json:"encoding"`
	Properties  string       `json:"properties,omitempty"`
	Limit       int          `json:"limit,omitempty"`
	CountOnly   bool         `json:"count_only,omitempty"`
	TimeoutMS   int          `json:"timeout_ms,omitempty"`
	// MaxRecords bounds how many stored frames one query replays
	// (default 256, server-capped at maxQueryRecords); more match →
	// Truncated.
	MaxRecords int `json:"max_records,omitempty"`
}

// queryRecordResult is one stored frame's reconstruction: the same
// per-entry results the request-body path returns for this frame, with
// trace-cycles offset by the frame's stored stream position.
type queryRecordResult struct {
	EpochUS        int64           `json:"epoch_us"`
	TraceCycleBase int64           `json:"trace_cycle_base"`
	Results        []entryResponse `json:"results"`
}

type queryResponse struct {
	Device    string              `json:"device"`
	Signal    string              `json:"signal"`
	M         int                 `json:"m"`
	B         int                 `json:"b"`
	Records   []queryRecordResult `json:"records"`
	Truncated bool                `json:"truncated,omitempty"`
}

// handleStoreQuery serves POST /v1/query: historical reconstruction
// over stored frames, replayed through the job planner and the warm
// session pipeline like a request body carrying each frame.
func (s *Server) handleStoreQuery(w http.ResponseWriter, r *http.Request) {
	defer s.obs.StartSpan(SpanRequest).End()
	s.obs.Counter(MetricReqQuery).Inc()
	resp, err := s.runQuery(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) runQuery(r *http.Request) (queryResponse, error) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	var req queryRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return queryResponse{}, badRequest("json body: %v", err)
	}
	if req.Device == "" || req.Signal == "" {
		return queryResponse{}, badRequest("need device and signal")
	}
	if req.MaxRecords <= 0 {
		req.MaxRecords = 256
	}
	if req.MaxRecords > maxQueryRecords {
		req.MaxRecords = maxQueryRecords
	}
	from, to := epochRange(req.FromEpochUS, req.ToEpochUS)
	recs, err := s.store.Query(logstore.Query{
		Device: req.Device, Signal: req.Signal, From: from, To: to, Limit: req.MaxRecords + 1,
	})
	if err != nil {
		return queryResponse{}, s.storeError(err)
	}
	resp := queryResponse{Device: req.Device, Signal: req.Signal, Records: []queryRecordResult{}}
	if len(recs) > req.MaxRecords {
		recs, resp.Truncated = recs[:req.MaxRecords], true
	}
	if len(recs) == 0 {
		return resp, nil
	}

	// A stored body that fails full decode is corruption the append-time
	// validation could not see (it checks the header only): fail closed
	// rather than skip silently.
	wires := make([]*wireLog, len(recs))
	for i, rec := range recs {
		if wires[i], err = decodeWire(rec.Body); err != nil {
			return queryResponse{}, s.storeError(err)
		}
	}
	// The first stored frame lends an unset m or b, exactly like a
	// request body; every frame must then fit the resolved spec.
	spec, err := resolveSpec(req.Encoding, wires[0])
	if err != nil {
		return queryResponse{}, err
	}
	opts, err := planOpts(req.Properties, req.Limit, req.CountOnly)
	if err != nil {
		return queryResponse{}, err
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	sess := s.sessions.get(spec)
	resp.M, resp.B = spec.M, spec.B
	for i, rec := range recs {
		items, err := planItems(spec, jobSpec{}, wires[i])
		if err != nil {
			return queryResponse{}, badRequest("stored frame at epoch %d: %v", rec.Epoch, err)
		}
		results, err := s.runItems(ctx, sess, items, opts, int(rec.TraceCycleBase))
		if err != nil {
			return queryResponse{}, err
		}
		resp.Records = append(resp.Records, queryRecordResult{EpochUS: rec.Epoch, TraceCycleBase: rec.TraceCycleBase, Results: results})
	}
	return resp, nil
}

// storeError maps store failures to HTTP semantics: corruption is 502
// (the store fails closed; the data is the problem, not the request),
// a closed store is 503, anything else 500.
func (s *Server) storeError(err error) error {
	switch {
	case errors.Is(err, logstore.ErrCorrupt), errors.Is(err, core.ErrCorrupt):
		return &httpError{code: http.StatusBadGateway, msg: "stored log failed validation: " + err.Error()}
	case errors.Is(err, logstore.ErrClosed):
		return &httpError{code: http.StatusServiceUnavailable, msg: "log store is closed"}
	}
	return err
}
