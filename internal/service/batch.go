package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// batchRequest is the JSON body of POST /v1/batch: many jobs against
// one shared encoding spec. The whole batch runs on a single session —
// one encoding build, one dispatcher — which is the point: a fleet
// frontend flushes a window of queries for one signal in one request
// instead of paying the session lookup and HTTP round-trip per query.
type batchRequest struct {
	Encoding EncodingSpec `json:"encoding"`
	Jobs     []jobSpec    `json:"jobs"`
	// TimeoutMS bounds the whole batch (capped by Config.MaxTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// batchJobResult is the per-job slot of the response. Jobs fail
// independently: Status carries the HTTP status the job would have
// drawn as a unary request (200, 400, 504, ...), so one malformed or
// timed-out job never poisons its siblings.
type batchJobResult struct {
	Index   int             `json:"index"`
	Status  int             `json:"status"`
	Error   string          `json:"error,omitempty"`
	Results []entryResponse `json:"results,omitempty"`
}

type batchResponse struct {
	M    int              `json:"m"`
	B    int              `json:"b"`
	Jobs []batchJobResult `json:"jobs"`
}

// parseBatchRequest decodes and structurally validates a batch body.
// It is a pure function over the raw bytes (no server state) so the
// fuzz target can drive it directly.
func parseBatchRequest(data []byte, maxJobs int) (batchRequest, error) {
	var req batchRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return batchRequest{}, badRequest("json body: %v", err)
	}
	if dec.More() {
		return batchRequest{}, badRequest("trailing data after batch object")
	}
	if len(req.Jobs) == 0 {
		return batchRequest{}, badRequest("batch needs at least one job")
	}
	if len(req.Jobs) > maxJobs {
		return batchRequest{}, badRequest("batch has %d jobs, cap is %d", len(req.Jobs), maxJobs)
	}
	return req, nil
}

// planBatch runs the job planner over a parsed batch. Each wire log is
// decoded once, and the first that decodes lends the shared spec an
// unset m or b. Only an unusable shared spec fails the whole batch;
// every other error is its job's own (errs[i]), so one malformed job
// never poisons its siblings. It is pure, so the fuzz target drives it
// directly.
func planBatch(req batchRequest) (EncodingSpec, []jobPlan, []error, error) {
	wires := make([]*wireLog, len(req.Jobs))
	errs := make([]error, len(req.Jobs))
	var first *wireLog
	for i, job := range req.Jobs {
		if job.Log == nil {
			continue
		}
		if wires[i], errs[i] = decodeWire(job.Log); errs[i] != nil {
			errs[i] = badRequest("wire log: %v", errs[i])
		} else if first == nil {
			first = wires[i]
		}
	}
	spec, err := resolveSpec(req.Encoding, first)
	if err != nil {
		return spec, nil, nil, err
	}
	plans := make([]jobPlan, len(req.Jobs))
	for i, job := range req.Jobs {
		if errs[i] == nil {
			plans[i], errs[i] = planJob(spec, job, wires[i])
		}
	}
	return spec, plans, errs, nil
}

// handleBatch runs many jobs against one shared session. Admission is
// atomic: the batch reserves one queue position per solve entry up
// front (reserveBatch) and is shed whole with 429 when they do not all
// fit — a batch never half-runs. Within the admitted batch, entries
// solve with bounded parallelism (Config.BatchParallelism), every one
// drawing its worker slot through the shared grant, and each job
// reports its own typed status.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	defer s.obs.StartSpan(SpanRequest).End()
	defer s.obs.StartSpan(SpanBatch).End()
	s.obs.Counter(MetricReqBatch).Inc()

	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		s.writeError(w, badRequest("body: %v", err))
		return
	}
	req, err := parseBatchRequest(data, s.cfg.MaxBatchJobs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	spec, plans, jobErrs, err := planBatch(req)
	if err != nil {
		s.writeError(w, err)
		return
	}

	// Every job is planned before anything is admitted, so the
	// reservation is sized by real solve entries and malformed jobs cost
	// nothing.
	total := 0
	for _, p := range plans {
		total += len(p.items)
	}
	grant, err := s.admit.reserveBatch(total)
	if err != nil {
		s.obs.Counter(MetricBatchShed).Inc()
		s.writeError(w, &httpError{code: http.StatusTooManyRequests, msg: "admission queue cannot fit the whole batch, retry later"})
		return
	}
	defer grant.close()
	s.obs.Counter(MetricBatchJobs).Add(int64(len(req.Jobs)))
	s.obs.Counter(MetricBatchEntries).Add(int64(total))

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	sess := s.sessions.get(spec)

	// Flatten the admitted entries into tasks and fan out across a
	// bounded worker pool; each (job, item) slot is written by exactly
	// one worker, so assembly below needs no locking.
	type task struct{ job, item int }
	var tasks []task
	results := make([][]entryResponse, len(plans))
	errs := make([][]error, len(plans))
	for j, p := range plans {
		results[j] = make([]entryResponse, len(p.items))
		errs[j] = make([]error, len(p.items))
		for i := range p.items {
			tasks = append(tasks, task{j, i})
		}
	}
	workers := min(s.cfg.BatchParallelism, len(tasks))
	next := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				p := &plans[t.job]
				results[t.job][t.item], errs[t.job][t.item] = s.solveEntry(ctx, sess, p.items[t.item], p.opts, grant.acquire)
			}
		}()
	}
	for _, t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()

	resp := batchResponse{M: spec.M, B: spec.B, Jobs: make([]batchJobResult, len(plans))}
	for j := range plans {
		jr := batchJobResult{Index: j, Status: http.StatusOK, Results: results[j]}
		// The plan error, else the first failing entry (in item order),
		// speaks for the job; partial results are dropped rather than
		// returned mislabeled as complete.
		err := jobErrs[j]
		for i := 0; err == nil && i < len(errs[j]); i++ {
			err = errs[j][i]
		}
		if err != nil {
			jr.Status, jr.Error = errorStatus(err)
			jr.Results = nil
		}
		resp.Jobs[j] = jr
	}
	s.writeJSON(w, http.StatusOK, resp)
}
