package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/logstore"
	"repro/internal/properties"
	"repro/internal/reconstruct"
)

// span is one timed call into a layer. Spans of one operation share
// Req; a layer call's Parent is the operation's root span ("op"), whose
// self time is the replay's own bookkeeping (cache lookups, loops).
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced replay runs.
type tracer struct {
	t0    time.Time
	spans []span
	root  int32 // index+1 of the open op span, 0 outside an op
	req   int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the current op and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: int32(len(t.spans) + 1), Parent: t.root, Req: t.req, Start: t.now()})
	return len(t.spans) - 1
}

// end closes span i, renaming it when name is not empty (a route is
// known only once the call returns).
func (t *tracer) end(i int, name string) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = t.now()
	if name != "" {
		s.Name = name
	}
}

// startOp opens the root span of operation req (-1 for set-up).
func (t *tracer) startOp(req int) {
	if t == nil {
		return
	}
	t.req = int32(req)
	t.root = 0
	t.root = int32(t.begin("op") + 1)
}

// endOp closes the op span; an op that called no layer (a cache hit)
// leaves no spans, which keeps hot-requery's trace small.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	i := int(t.root - 1)
	if i == len(t.spans)-1 {
		t.spans = t.spans[:i]
	} else {
		t.end(i, "")
	}
	t.root = 0
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer runs a workload's operations in-process, sequentially,
// through the calls the daemon makes: logstore.Open, encoding.
// Incremental, reconstruct.NewDispatcher, core.ReadLog, properties.
// Parse, Dispatcher.Features and EnumerateRouted, Store.Append and
// Store.Query. It mirrors the daemon's result cache so cache hits cost
// what they cost there: no layer call at all.
type replayer struct {
	tr    *tracer
	store *logstore.Store
	disp  *reconstruct.Dispatcher
	cache *resultCache

	solves      int
	candidates  int
	entriesRead int
	recordsRead int
}

// newReplayer opens the store copy in dir and builds the session the
// way the daemon does on its first request, with the daemon's
// dispatcher options (Workers 1, SessionMaxK 16).
func newReplayer(dir string, tr *tracer) (*replayer, error) {
	r := &replayer{tr: tr, cache: newResultCache(1024)}
	tr.startOp(-1)
	defer tr.endOp()
	i := tr.begin("logstore.open")
	st, rec, err := logstore.Open(dir, logstore.Options{})
	tr.end(i, "")
	if err != nil {
		return nil, err
	}
	if rec.Corrupt() {
		st.Close()
		return nil, fmt.Errorf("replay store failed recovery: %v", rec.Errs)
	}
	r.store = st
	i = tr.begin("encoding.build")
	enc, err := encoding.Incremental(geomM, geomB, geomDepth)
	tr.end(i, "")
	if err != nil {
		st.Close()
		return nil, err
	}
	i = tr.begin("reconstruct.new_dispatcher")
	r.disp, err = reconstruct.NewDispatcher(enc, reconstruct.DispatchOptions{Workers: 1, SessionMaxK: 16})
	tr.end(i, "")
	if err != nil {
		st.Close()
		return nil, err
	}
	return r, nil
}

func (r *replayer) close() error { return r.store.Close() }

func (r *replayer) readLog(body []byte) ([]core.LogEntry, error) {
	i := r.tr.begin("core.read_log")
	_, _, entries, err := core.ReadLog(bytes.NewReader(body))
	r.tr.end(i, "")
	r.entriesRead += len(entries)
	return entries, err
}

func (r *replayer) parse(expr string) (properties.Property, error) {
	i := r.tr.begin("properties.parse")
	p, err := properties.Parse(expr)
	r.tr.end(i, "")
	return p, err
}

// solve answers one entry under an optional property, unless the
// mirrored cache already holds the answer.
func (r *replayer) solve(e core.LogEntry, prop properties.Property, limit int) error {
	var cons []reconstruct.Constraint
	propKey := ""
	if prop != nil {
		cons, propKey = []reconstruct.Constraint{prop}, prop.String()
	}
	key := fmt.Sprintf("%s|%d|%s|%d", e.TP.Key(), e.K, propKey, limit)
	if r.cache.hit(key) {
		return nil
	}
	i := r.tr.begin("gf2.features")
	_, err := r.disp.Features(e, cons)
	r.tr.end(i, "")
	if err != nil {
		return err
	}
	i = r.tr.begin("reconstruct.route")
	sigs, _, dec, err := r.disp.EnumerateRouted(context.Background(), e, cons, limit)
	r.tr.end(i, "reconstruct.route."+dec.Chosen)
	if err != nil {
		return err
	}
	r.solves++
	r.candidates += len(sigs)
	r.cache.add(key)
	return nil
}

func (r *replayer) solveAll(entries []core.LogEntry) error {
	for _, e := range entries {
		if err := r.solve(e, nil, defaultLimit); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) append(rec logstore.Record) error {
	i := r.tr.begin("logstore.append")
	_, err := r.store.Append(rec)
	r.tr.end(i, "")
	return err
}

func (r *replayer) query(q logstore.Query) ([]logstore.Record, error) {
	i := r.tr.begin("logstore.query")
	recs, err := r.store.Query(q)
	r.tr.end(i, "")
	r.recordsRead += len(recs)
	return recs, err
}

// resultCache mirrors the daemon's LRU result cache (keys only).
type resultCache struct {
	max   int
	ll    *list.List
	items map[string]*list.Element
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *resultCache) hit(key string) bool {
	el, ok := c.items[key]
	if ok {
		c.ll.MoveToFront(el)
	}
	return ok
}

func (c *resultCache) add(key string) {
	c.items[key] = c.ll.PushFront(key)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(string))
	}
}
