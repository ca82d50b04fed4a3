package service

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/reconstruct"
)

// EncodingSpec names an encoding (and the trace parameters of the
// signal logged under it) in a request. It is the session key: two
// requests with the same canonical spec share one built encoding.
type EncodingSpec struct {
	// Scheme selects the generator: "incremental" (default), "random",
	// "binary", "onehot", or "explicit" (Timestamps given verbatim).
	Scheme string `json:"scheme,omitempty"`
	// M is the trace-cycle length, B the timestamp width. For wire-log
	// requests both default to the log header's values; for binary and
	// onehot schemes B is derived from M and may be omitted.
	M int `json:"m,omitempty"`
	B int `json:"b,omitempty"`
	// Depth is the linear-independence depth for the generated schemes
	// (default 4, the paper's choice).
	Depth int `json:"depth,omitempty"`
	// Seed drives the "random" scheme.
	Seed int64 `json:"seed,omitempty"`
	// Timestamps (MSB-first bit strings, width B) define an "explicit"
	// encoding, e.g. the paper's Figure 4 table.
	Timestamps []string `json:"timestamps,omitempty"`
	// ClockHz and Epoch are the traced signal's clock rate and the
	// absolute time of clock-cycle 0 — the trace.Store parameters, used
	// by /v1/compare to map mismatches to absolute time.
	ClockHz float64 `json:"clock_hz,omitempty"`
	Epoch   float64 `json:"epoch,omitempty"`
}

// normalize fills defaults and validates the scheme-independent shape.
func (sp EncodingSpec) normalize() (EncodingSpec, error) {
	if sp.Scheme == "" {
		sp.Scheme = "incremental"
	}
	sp.Scheme = strings.ToLower(sp.Scheme)
	if sp.Depth == 0 {
		sp.Depth = 4
	}
	switch sp.Scheme {
	case "explicit":
		if len(sp.Timestamps) == 0 {
			return sp, fmt.Errorf("explicit encoding needs timestamps")
		}
		sp.M = len(sp.Timestamps)
		sp.B = len(sp.Timestamps[0])
	case "binary":
		if sp.M <= 0 {
			return sp, fmt.Errorf("encoding needs m > 0")
		}
		sp.B = encoding.Binary(sp.M).B()
	case "onehot", "one-hot":
		if sp.M <= 0 {
			return sp, fmt.Errorf("encoding needs m > 0")
		}
		sp.Scheme = "onehot"
		sp.B = sp.M
	case "incremental", "random", "random-constrained":
		if sp.Scheme == "random-constrained" {
			sp.Scheme = "random"
		}
		if sp.M <= 0 || sp.B <= 0 {
			return sp, fmt.Errorf("encoding scheme %q needs m and b", sp.Scheme)
		}
	default:
		return sp, fmt.Errorf("unknown encoding scheme %q", sp.Scheme)
	}
	if sp.ClockHz < 0 {
		return sp, fmt.Errorf("clock_hz must be >= 0")
	}
	return sp, nil
}

// key renders the canonical session key. Specs that normalize equally
// share a session (and a built encoding).
func (sp EncodingSpec) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s|m=%d|b=%d|d=%d|seed=%d|clock=%g|epoch=%g",
		sp.Scheme, sp.M, sp.B, sp.Depth, sp.Seed, sp.ClockHz, sp.Epoch)
	for _, ts := range sp.Timestamps {
		b.WriteByte('|')
		b.WriteString(ts)
	}
	return b.String()
}

// build constructs the encoding — the expensive step a session
// amortizes across requests.
func (sp EncodingSpec) build() (*encoding.Encoding, error) {
	switch sp.Scheme {
	case "incremental":
		return encoding.Incremental(sp.M, sp.B, sp.Depth)
	case "random":
		return encoding.RandomConstrained(sp.M, sp.B, sp.Depth, sp.Seed, 0)
	case "binary":
		return encoding.Binary(sp.M), nil
	case "onehot":
		return encoding.OneHot(sp.M), nil
	case "explicit":
		ts := make([]bitvec.Vector, len(sp.Timestamps))
		for i, s := range sp.Timestamps {
			v, err := bitvec.Parse(s)
			if err != nil {
				return nil, fmt.Errorf("timestamp %d: %w", i, err)
			}
			ts[i] = v
		}
		return encoding.FromTimestamps(ts, "explicit")
	}
	return nil, fmt.Errorf("unknown encoding scheme %q", sp.Scheme)
}

// session is the per-(m, b, encoding, ClockHz/Epoch) state shared by
// requests: the cost-model dispatcher, built lazily with the encoding
// underneath it, that owns the per-backend state (decoder pair index,
// incremental warm solver). The sync.Once makes concurrent first
// requests build it exactly once.
type session struct {
	spec EncodingSpec
	// key is spec.key(), rendered once: every entry's cache key starts
	// with it.
	key  string
	obs  *obs.Registry
	once sync.Once
	disp *reconstruct.Dispatcher
	err  error
}

// dispatcher returns the session's oracle router, building it (and the
// encoding underneath) on first use. The dispatcher is shared by every
// request on the session, so the warm incremental solver and the
// decoder's pair index amortize across the session's lifetime.
func (s *session) dispatcher(opts reconstruct.DispatchOptions) (*reconstruct.Dispatcher, error) {
	s.once.Do(func() {
		// The build counter is the amortization witness the batch API
		// and tprload assert on: a batch of N jobs (or a stream of N
		// frames) on one spec must move it by exactly 1.
		s.obs.Counter(MetricEncodingBuilds).Inc()
		enc, err := s.spec.build()
		if err != nil {
			s.err = err
			return
		}
		s.disp, s.err = reconstruct.NewDispatcher(enc, opts)
	})
	return s.disp, s.err
}

// sessionTable is a bounded LRU of sessions keyed by the canonical
// spec. Eviction only drops the cached encoding — a returning client
// pays one rebuild, never an error.
type sessionTable struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element

	reg   *obs.Registry
	gauge *obs.Gauge
}

type sessionEntry struct {
	key  string
	sess *session
}

func newSessionTable(max int, r *obs.Registry) *sessionTable {
	return &sessionTable{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element, max),
		reg:   r,
		gauge: r.Gauge(MetricSessions),
	}
}

// get returns the session for the normalized spec, creating it on
// first use.
func (t *sessionTable) get(sp EncodingSpec) *session {
	key := sp.key()
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		t.ll.MoveToFront(el)
		return el.Value.(*sessionEntry).sess
	}
	sess := &session{spec: sp, key: key, obs: t.reg}
	t.items[key] = t.ll.PushFront(&sessionEntry{key: key, sess: sess})
	// Eviction only forgets the table entry: requests (a batch mid-
	// flight, a live stream) that already hold the *session keep using
	// it — its encoding is never rebuilt under them. A returning client
	// pays one rebuild, never an error.
	for t.ll.Len() > t.max {
		oldest := t.ll.Back()
		t.ll.Remove(oldest)
		delete(t.items, oldest.Value.(*sessionEntry).key)
	}
	t.gauge.Set(int64(t.ll.Len()))
	return sess
}
