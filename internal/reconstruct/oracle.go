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

// ErrUnsupported reports that an oracle cannot express a request it
// was handed: k beyond the algebraic decoder's range, or a coset walk
// past BruteMaxVisits points. Only a forced decode or brute backend
// meets it, since the cost model never routes such a request there.
// The dispatcher treats it as "pick another backend", never as a
// request failure.
var ErrUnsupported = errors.New("reconstruct: oracle does not support this request")

// ErrConstraint reports a constraint whose Validate fails for the
// encoding's m, such as a window reaching past cycle m. Like
// core.ErrWidth and core.ErrKRange it is the request's own fault.
var ErrConstraint = errors.New("invalid constraint")

// Oracle is one sound Signal Reconstruction backend: it answers the
// paper's one question of a log entry, every x with A·x = TP and
// |x| = k under the given constraints. All five engines in the
// repository — algebraic decode, serial SAT, cube-split parallel SAT,
// the incremental session solver and GF(2) brute force — implement it,
// as does the cost-model Dispatcher that routes between them.
//
// The error contract is typed and uniform across implementations:
//
//   - core.ErrWidth / core.ErrKRange / ErrConstraint: the request is
//     malformed for the encoding (wrong timeprint width, k outside
//     [0, m], a constraint that does not fit m). No backend can answer
//     it.
//   - ErrUnsupported: the request is well-formed but outside this
//     oracle's scope. Another backend (serial SAT always qualifies)
//     must be used; results accompanying it are meaningless.
//   - sat.ErrBudget / sat.ErrInterrupted: the search stopped early
//     (conflict budget, ctx cancellation). Signals returned so far are
//     valid but no completeness claim holds.
//
// Enumerate's exhausted result is true only when the full candidate
// space was covered; implementations fail closed — a truncated search
// always carries an explaining error. ctx must be non-nil.
type Oracle interface {
	// Enumerate finds up to limit candidates (limit <= 0: all).
	Enumerate(ctx context.Context, entry core.LogEntry, constraints []Constraint, limit int) ([]core.Signal, bool, error)
}

// Oracle/dispatch metric names.
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
)

// validate applies the checks every backend shares: the entry's width
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

// --- serial / parallel SAT ---

// satOracle is the one-shot CNF backend: each request builds a fresh
// Reconstructor (GF(2) presolve + XOR rows + cardinality ladder) and
// enumerates under the request context. workers > 1 switches the
// enumeration to the cube-split parallel portfolio.
type satOracle struct {
	enc     *encoding.Encoding
	opts    Options
	workers int
}

// NewSATOracle returns the serial one-shot SAT backend — the always-
// sound reference every other oracle is checked against.
func NewSATOracle(enc *encoding.Encoding, opts Options) Oracle {
	return &satOracle{enc: enc, opts: opts, workers: 1}
}

// NewParallelSATOracle returns the cube-split parallel SAT backend
// (workers <= 0: GOMAXPROCS).
func NewParallelSATOracle(enc *encoding.Encoding, workers int, opts Options) Oracle {
	if workers <= 0 {
		workers = 0 // ParallelEnumerate resolves GOMAXPROCS itself
	}
	return &satOracle{enc: enc, opts: opts, workers: workers}
}

func (o *satOracle) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	r, err := New(o.enc, entry, cons, o.opts)
	if err != nil {
		return nil, false, err
	}
	if o.workers != 1 {
		stop := r.builder.S.InterruptOnDone(ctx.Done())
		defer stop()
		return r.EnumerateParallelStrict(limit, o.workers)
	}
	return r.EnumerateWithin(ctx.Done(), limit)
}

// --- algebraic decode ---

// decodeOracle wraps internal/decode: meet-in-the-middle syndrome
// decoding for k <= decode.MaxK. Constraints are applied by concrete
// filtering (Holds) as the decoder emits candidates, never encoded, so
// only the candidates that hold are kept. Requests share the decoder
// without a lock: it is safe for concurrent use, its pair index built
// once on first need.
type decodeOracle struct {
	enc *encoding.Encoding
	dec *decode.Decoder
}

// NewDecodeOracle returns the algebraic decoding backend (k <= 4).
func NewDecodeOracle(enc *encoding.Encoding) Oracle {
	return &decodeOracle{enc: enc, dec: decode.New(enc)}
}

func (o *decodeOracle) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	if err := validate(o.enc, entry, cons); err != nil {
		return nil, false, err
	}
	if entry.K > decode.MaxK {
		return nil, false, fmt.Errorf("decode handles k <= %d, got %d: %w", decode.MaxK, entry.K, ErrUnsupported)
	}
	// Keep only the candidates that hold, then sort: filtering and
	// sorting commute, so the first limit are the ones a filter over
	// the sorted Decode list would return.
	m := o.enc.M()
	var out []core.Signal
	err := o.dec.ForEach(entry, func(changes []int) {
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

// --- GF(2) brute force ---

// BruteMaxVisits is the brute oracle's ceiling: a request whose coset
// walk would visit more points (gf2.WalkVisits) gets ErrUnsupported.
// 2^28 is the whole coset at nullity 28.
const BruteMaxVisits = 1 << 28

// bruteOracle solves by linear algebra alone: Gaussian elimination
// yields the solution coset, whose points with at most k ones on the
// free columns are walked and filtered by |x| = k and the constraints.
// The dispatcher answers its pinned and brute routes with the same
// walk, from the elimination its feature extraction already did.
type bruteOracle struct {
	enc *encoding.Encoding
}

// NewBruteOracle returns the GF(2) coset-walk backend.
func NewBruteOracle(enc *encoding.Encoding) Oracle {
	return &bruteOracle{enc: enc}
}

func (o *bruteOracle) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	if err := validate(o.enc, entry, cons); err != nil {
		return nil, false, err
	}
	return walkCoset(ctx, o.enc.Matrix().Eliminate(entry.TP), entry.K, cons, limit)
}

// walkCoset answers a request from the echelon form of [A | TP]: it
// walks every coset point that can have weight k and keeps those of
// weight k that hold under cons, up to limit (<= 0: all).
func walkCoset(ctx context.Context, ech gf2.Echelon, k int, cons []Constraint, limit int) ([]core.Signal, bool, error) {
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
	if interrupted {
		return out, false, fmt.Errorf("reconstruct: brute enumeration interrupted: %w", sat.ErrInterrupted)
	}
	return out, !truncated, nil
}

// --- incremental session ---

// SessionOracle adapts reconstruct.Session to the Oracle interface
// with a pool of warm solvers: a prototype Session that is NEVER
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

func (o *SessionOracle) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	sess, release, err := o.acquire(entry, cons)
	if err != nil {
		return nil, false, err
	}
	defer release()
	return sess.EnumerateWithin(ctx.Done(), entry, cons, limit)
}

// acquire validates the request against the session's fixed shape and
// takes a warm session from the pool, cloning the prototype when the
// pool is empty. The returned func puts the session back.
func (o *SessionOracle) acquire(entry core.LogEntry, cons []Constraint) (*Session, func(), error) {
	if err := validate(o.proto.enc, entry, cons); err != nil {
		return nil, nil, err
	}
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
	return sess, func() { o.release(sess) }, nil
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
