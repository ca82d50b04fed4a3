package reconstruct

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encoding"
	"repro/internal/gf2"
	"repro/internal/obs"
	"repro/internal/sat"
)

// ErrUnsupported reports that an engine cannot express a request it
// was forced onto: k past the algebraic decoder's range (k > 4, or
// k >= 3 past decode.MaxPairM), or a coset walk past BruteMaxVisits
// points. The cost model never routes such a request there, and the
// dispatcher treats it as "answer on serial SAT", never as a request
// failure.
var ErrUnsupported = errors.New("reconstruct: oracle does not support this request")

// ErrConstraint reports a constraint whose Validate fails for the
// encoding's m, such as a window reaching past cycle m. Like
// core.ErrWidth and core.ErrKRange it is the request's own fault.
var ErrConstraint = errors.New("invalid constraint")

// Dispatch metric names.
const (
	// MetricOracleSessionReuse counts queries solved on a warm session
	// taken from a SessionOracle's pool; MetricOracleSessionClone
	// counts queries that found the pool empty, so a new session was
	// cloned from the prototype (and joins the pool afterwards).
	// MetricOracleSessionRetired counts sessions dropped on release
	// because their variable count outgrew the pool's ceiling.
	MetricOracleSessionReuse   = "reconstruct.oracle.session.reuse"
	MetricOracleSessionClone   = "reconstruct.oracle.session.clone"
	MetricOracleSessionRetired = "reconstruct.oracle.session.retired"
	// MetricDispatchChosenPrefix + route counts requests the dispatcher
	// sent to that route; MetricDispatchFallback counts requests whose
	// forced backend returned ErrUnsupported and were re-run on serial
	// SAT (0 under cost-model routing).
	MetricDispatchChosenPrefix = "reconstruct.dispatch.chosen."
	MetricDispatchFallback     = "reconstruct.dispatch.fallback"
	// SpanDispatch times routed requests end to end (feature
	// extraction, the chosen backend, any fallback).
	SpanDispatch = "reconstruct.dispatch"
	// MetricBruteVisited counts the coset points the pinned and brute
	// routes walked, added once per walk: a deterministic effort count
	// like the solver's conflicts.
	MetricBruteVisited = "reconstruct.brute.visited"
)

// validate applies the checks every route shares: the entry's width
// and k range, and every constraint's fit over the encoding's m cycles.
func validate(enc *encoding.Encoding, entry core.LogEntry, cons []Constraint) error {
	if entry.TP.Width() != enc.B() {
		return fmt.Errorf("reconstruct: timeprint width %d, want %d: %w", entry.TP.Width(), enc.B(), core.ErrWidth)
	}
	if entry.K < 0 || entry.K > enc.M() {
		return fmt.Errorf("reconstruct: k=%d outside [0,%d]: %w", entry.K, enc.M(), core.ErrKRange)
	}
	for _, c := range cons {
		if err := c.Validate(enc.M()); err != nil {
			return fmt.Errorf("reconstruct: constraint %s: %v: %w", c, err, ErrConstraint)
		}
	}
	return nil
}

// holdsAll evaluates all constraints against a signal.
func holdsAll(cons []Constraint, s core.Signal) bool {
	for _, c := range cons {
		if !c.Holds(s) {
			return false
		}
	}
	return true
}

// decodable reports whether the algebraic decoder takes k changes over
// m cycles: k <= decode.MaxK, and k <= 2 past decode.MaxPairM.
func decodable(m, k int) bool {
	return k <= decode.MaxK && (k < 3 || m <= decode.MaxPairM)
}

// decodeFiltered answers a request by algebraic syndrome decoding
// (internal/decode). Constraints are applied by concrete filtering
// (Holds) as the decoder emits candidates, never encoded, so only the
// candidates that hold are kept. A request that is not decodable
// returns ErrUnsupported, so a forced decode falls back to SAT.
func decodeFiltered(dec *decode.Decoder, m int, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	if !decodable(m, entry.K) {
		return nil, false, fmt.Errorf("decode handles k <= %d (k <= 2 past m = %d), got k=%d at m=%d: %w", decode.MaxK, decode.MaxPairM, entry.K, m, ErrUnsupported)
	}
	// Keep only the candidates that hold, then sort: filtering and
	// sorting commute, so the first limit are the ones a filter over
	// the sorted Decode list would return.
	var out []core.Signal
	err := dec.ForEach(entry, func(changes []int) {
		if s := core.SignalFromChanges(m, changes...); holdsAll(cons, s) {
			out = append(out, s)
		}
	})
	if err != nil {
		return nil, false, err
	}
	slices.SortFunc(out, core.Signal.Compare)
	if limit > 0 && len(out) > limit {
		return out[:limit], false, nil
	}
	return out, true, nil
}

// BruteMaxVisits is the coset walk's ceiling: a forced brute request
// or a BruteForce call whose walk would visit more points
// (gf2.WalkVisits) gets ErrUnsupported. 2^28 is the whole coset at
// nullity 28.
const BruteMaxVisits = 1 << 28

// walkCoset answers a request by linear algebra alone, from the
// echelon form of [A | TP]: it walks every coset point with at most k
// ones on the free columns and keeps those of weight k that hold under
// cons, up to limit (<= 0: all). It adds the points it visited to
// MetricBruteVisited on reg once, after the walk.
func walkCoset(ctx context.Context, ech gf2.Echelon, k int, cons []Constraint, limit int, reg *obs.Registry) ([]core.Signal, bool, error) {
	if !ech.Consistent {
		return nil, true, nil // TP outside the column space: no signals
	}
	if v := gf2.WalkVisits(ech.Cols-ech.Rank, k); v > BruteMaxVisits {
		return nil, false, fmt.Errorf("brute force refuses %d coset visits > %d: %w", v, BruteMaxVisits, ErrUnsupported)
	}
	done := ctx.Done()
	var out []core.Signal
	interrupted, truncated := false, false
	visited := 0
	ech.Walk(k, func(x bitvec.Vector) bool {
		if visited++; visited&1023 == 0 {
			select {
			case <-done:
				interrupted = true
				return false
			default:
			}
		}
		if x.PopCount() != k {
			return true
		}
		s := core.SignalFromVector(x)
		if !holdsAll(cons, s) {
			return true
		}
		out = append(out, s)
		if limit > 0 && len(out) >= limit {
			truncated = true
			return false
		}
		return true
	})
	reg.Counter(MetricBruteVisited).Add(int64(visited))
	if interrupted {
		return out, false, fmt.Errorf("reconstruct: brute enumeration interrupted: %w", sat.ErrInterrupted)
	}
	return out, !truncated, nil
}

// --- incremental session ---

// SessionOracle answers the sat-inc route from a pool of warm
// Sessions: a prototype Session that is NEVER
// queried (so cloning it is a pure read) and a free list of sessions
// that each accumulate learned clauses across the queries they serve.
// A query takes a session from the free list, or clones the prototype
// when the list is empty, and puts it back when done. The list grows
// only when it is empty, so it never holds more sessions than the
// peak number of concurrent queries; the service's admission bounds
// that by its worker count.
type SessionOracle struct {
	proto *Session
	obs   *obs.Registry

	mu   sync.Mutex // guards free
	free []*Session
}

// maxSessionGrowth caps a pooled session's variable count at this
// multiple of the prototype's. Every enumeration leaves a retired
// selector variable behind, every distinct property string adds a
// permanent guard group and a widen adds m variables per ladder rung,
// so a session that outgrows the cap is dropped on release and the
// pool clones a fresh one on the next empty take.
const maxSessionGrowth = 2

// NewSessionOracle builds the incremental assumption-based backend for
// enc. Construction pays the one-off A-structure encoding (uncut XOR
// rows, cardinality ladder); every query after that is an assumption
// solve, for every k (see Session).
func NewSessionOracle(enc *encoding.Encoding, opts SessionOptions) *SessionOracle {
	proto := NewSession(enc, opts)
	return &SessionOracle{proto: proto, free: []*Session{proto.Clone()}, obs: opts.Obs}
}

// Enumerate answers one request on a pooled session (see
// Session.Query), with ctx cancelling the search.
func (o *SessionOracle) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	sess, release := o.acquire()
	defer release()
	return sess.EnumerateWithin(ctx.Done(), entry, cons, limit)
}

// acquire takes a warm session from the pool, cloning the prototype
// when the pool is empty. The returned func puts the session back.
func (o *SessionOracle) acquire() (*Session, func()) {
	var sess *Session
	o.mu.Lock()
	if n := len(o.free); n > 0 {
		sess = o.free[n-1]
		o.free[n-1] = nil
		o.free = o.free[:n-1]
	}
	o.mu.Unlock()
	if sess != nil {
		o.obs.Counter(MetricOracleSessionReuse).Inc()
	} else {
		o.obs.Counter(MetricOracleSessionClone).Inc()
		sess = o.proto.Clone()
	}
	return sess, func() { o.release(sess) }
}

// release returns a session to the pool, or drops it once it has
// outgrown maxSessionGrowth times the prototype's variable count.
func (o *SessionOracle) release(sess *Session) {
	if sess.numVars() > maxSessionGrowth*o.proto.numVars() {
		o.obs.Counter(MetricOracleSessionRetired).Inc()
		return
	}
	o.mu.Lock()
	o.free = append(o.free, sess)
	o.mu.Unlock()
}
