package service

import (
	"bytes"
	"context"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/properties"
	"repro/internal/reconstruct"
)

// The job planner. Every ingest path (unary, count, batch, stream
// frames, /v1/query replays) turns a request into solve work by the
// same steps: decodeWire each wire body once, resolveSpec, planJob
// (its halves planItems and planOpts), then runItems. The paths differ
// only in their error policy (DESIGN.md §9).

// Default enumeration bounds when a job leaves limit at 0. Any negative
// limit is exhaustive (the deadline still bounds it).
const (
	defaultReconstructLimit = 16
	defaultCountLimit       = 4096
)

// jobSpec is one reconstruction job: an inline TP/k entry or a wire log
// (optionally windowed by Cycles), with properties, limit and
// count-only mode. It is a /v1/batch job's JSON and the form every path
// hands the planner, with Log already decoded into a *wireLog.
type jobSpec struct {
	TP         string `json:"tp,omitempty"`
	K          int    `json:"k,omitempty"`
	Log        []byte `json:"log,omitempty"`
	Cycles     []int  `json:"cycles,omitempty"`
	Properties string `json:"properties,omitempty"`
	Limit      int    `json:"limit,omitempty"`
	CountOnly  bool   `json:"count_only,omitempty"`
}

// wireLog is a decoded core.WriteLog body.
type wireLog struct {
	m, b    int
	entries []core.LogEntry
}

// decodeWire is the one place wire bytes are decoded. The error is
// core.ReadLog's: callers map it to 400, or 502 for a stored frame.
func decodeWire(body []byte) (*wireLog, error) {
	m, b, entries, err := core.ReadLog(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return &wireLog{m: m, b: b, entries: entries}, nil
}

// fits rejects a wire log whose header disagrees with the resolved
// spec.
func (w *wireLog) fits(spec EncodingSpec) error {
	if w.m != spec.M || w.b != spec.B {
		return badRequest("wire header (m=%d, b=%d) does not match encoding (m=%d, b=%d)", w.m, w.b, spec.M, spec.B)
	}
	return nil
}

// resolveSpec normalizes a request's EncodingSpec, first filling an
// unset m or b from the wire header w (nil for none). Mismatches are
// planItems' check, made per wire log, so a batch job whose log
// disagrees with the shared spec fails alone.
func resolveSpec(enc EncodingSpec, w *wireLog) (EncodingSpec, error) {
	if w != nil {
		if enc.M == 0 {
			enc.M = w.m
		}
		if enc.B == 0 {
			enc.B = w.b
		}
	}
	spec, err := enc.normalize()
	if err != nil {
		return spec, badRequest("encoding: %v", err)
	}
	return spec, nil
}

// workItem is one (trace-cycle, entry) unit of solve work: inline
// TP/k, or one selected entry of a wire log.
type workItem struct {
	tc    int
	entry core.LogEntry
}

// solveOpts are a job's canonical solve parameters, shared by its
// items and part of each item's cache key.
type solveOpts struct {
	constraints []reconstruct.Constraint
	propKey     string
	limit       int
	countOnly   bool
}

// jobPlan is a job resolved against its spec: the items to solve and
// the options to solve them under.
type jobPlan struct {
	items []workItem
	opts  solveOpts
}

// planJob validates one job against the resolved spec; w is its
// decoded wire log, nil for an inline TP/k job. Every error is a 400.
func planJob(spec EncodingSpec, j jobSpec, w *wireLog) (jobPlan, error) {
	items, err := planItems(spec, j, w)
	if err != nil {
		return jobPlan{}, err
	}
	opts, err := planOpts(j.Properties, j.Limit, j.CountOnly)
	if err != nil {
		return jobPlan{}, err
	}
	return jobPlan{items: items, opts: opts}, nil
}

// planItems turns an inline TP/k or a wire log plus cycles into work
// items. Cycles never ask for more items than the log has entries.
func planItems(spec EncodingSpec, j jobSpec, w *wireLog) ([]workItem, error) {
	if w == nil {
		switch {
		case j.TP == "":
			return nil, badRequest("need tp/k or a wire log")
		case len(j.Cycles) > 0:
			return nil, badRequest("cycles select entries of a wire log; an inline tp/k job has none")
		}
		tp, err := bitvec.Parse(j.TP)
		if err != nil {
			return nil, badRequest("tp: %v", err)
		}
		if tp.Width() != spec.B {
			return nil, badRequest("tp width %d, want b=%d", tp.Width(), spec.B)
		}
		return []workItem{{tc: 0, entry: core.LogEntry{TP: tp, K: j.K}}}, nil
	}
	if j.TP != "" {
		return nil, badRequest("give either tp/k or log, not both")
	}
	if err := w.fits(spec); err != nil {
		return nil, err
	}
	if len(j.Cycles) == 0 {
		items := make([]workItem, len(w.entries))
		for tc, e := range w.entries {
			items[tc] = workItem{tc, e}
		}
		return items, nil
	}
	if len(j.Cycles) > len(w.entries) {
		return nil, badRequest("%d cycles requested from a %d-entry log", len(j.Cycles), len(w.entries))
	}
	items := make([]workItem, len(j.Cycles))
	for i, tc := range j.Cycles {
		if tc < 0 || tc >= len(w.entries) {
			return nil, badRequest("trace-cycle %d outside [0,%d)", tc, len(w.entries))
		}
		items[i] = workItem{tc, w.entries[tc]}
	}
	return items, nil
}

// planOpts turns properties, limit and count-only mode into solve
// options; a stream or query whose options cover many wire logs calls
// it once.
func planOpts(props string, limit int, countOnly bool) (solveOpts, error) {
	constraints, propKey, err := canonProps(props)
	if err != nil {
		return solveOpts{}, err
	}
	return solveOpts{
		constraints: constraints,
		propKey:     propKey,
		limit:       effectiveLimit(limit, countOnly),
		countOnly:   countOnly,
	}, nil
}

// canonProps parses and canonicalizes a properties expression. The
// parsed form's String() is the cache-key representation, so
// equivalent spellings ("mingap(3); dk(32,3)" vs "mingap(3);dk(32,3)")
// share cache entries.
func canonProps(expr string) ([]reconstruct.Constraint, string, error) {
	if expr == "" {
		return nil, "", nil
	}
	prop, err := properties.Parse(expr)
	if err != nil {
		return nil, "", badRequest("properties: %v", err)
	}
	return []reconstruct.Constraint{prop}, prop.String(), nil
}

// effectiveLimit resolves a job's limit: 0 is the endpoint default,
// and every negative limit becomes -1 so all spellings of "exhaustive"
// share a cache key.
func effectiveLimit(limit int, countOnly bool) int {
	switch {
	case limit < 0:
		return -1
	case limit > 0:
		return limit
	case countOnly:
		return defaultCountLimit
	}
	return defaultReconstructLimit
}

// runItems answers items in order through solveEntry, numbering
// results from the trace-cycle base. The first error ends the run: a
// job is answered whole or not at all.
func (s *Server) runItems(ctx context.Context, sess *session, items []workItem, opts solveOpts, base int) ([]entryResponse, error) {
	// No items leaves results nil, which replies render as null.
	var results []entryResponse
	if len(items) > 0 {
		results = make([]entryResponse, 0, len(items))
	}
	for _, it := range items {
		it.tc += base
		er, err := s.solveEntry(ctx, sess, it, opts, s.admit.acquire)
		if err != nil {
			return nil, err
		}
		results = append(results, er)
	}
	return results, nil
}
