package reconstruct

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/sat"
)

// ErrUnsupported reports that an oracle cannot express a request it
// was handed — k beyond the algebraic decoder's range, a nullity past
// the brute-force budget, a constraint that cannot be selector-guarded
// on a session solver. It is errors.Is-matchable; the dispatcher
// treats it as "pick another backend", never as a request failure.
var ErrUnsupported = errors.New("reconstruct: oracle does not support this request")

// Oracle is one sound Signal Reconstruction backend. All five engines
// in the repository — algebraic decode, serial SAT, cube-split
// parallel SAT, the incremental session solver and GF(2) brute force —
// implement it, as does the cost-model Dispatcher that routes between
// them.
//
// The error contract is typed and uniform across implementations:
//
//   - core.ErrWidth / core.ErrKRange: the request is malformed for the
//     encoding (wrong timeprint width, k outside [0, m]). No backend
//     can answer it.
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
	// Name identifies the backend in reports and metrics.
	Name() string
	// First finds one candidate signal. Status Unsat proves none
	// exists; Unknown carries a budget/interrupt error.
	First(ctx context.Context, entry core.LogEntry, constraints []Constraint) (core.Signal, sat.Status, error)
	// Enumerate finds up to limit candidates (limit <= 0: all).
	Enumerate(ctx context.Context, entry core.LogEntry, constraints []Constraint, limit int) ([]core.Signal, bool, error)
	// Count counts candidates up to max (max <= 0: all); exhausted
	// reports whether the count is the complete total.
	Count(ctx context.Context, entry core.LogEntry, constraints []Constraint, max int) (int, bool, error)
	// Check decides whether any candidate exists (the safety-property
	// query): Sat, Unsat, or Unknown with a budget/interrupt error.
	Check(ctx context.Context, entry core.LogEntry, constraints []Constraint) (sat.Status, error)
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
	// sent to that route; MetricDispatchFallback counts mispredicts —
	// requests whose chosen backend returned ErrUnsupported and were
	// re-run on serial SAT.
	MetricDispatchChosenPrefix = "reconstruct.dispatch.chosen."
	MetricDispatchFallback     = "reconstruct.dispatch.fallback"
	// SpanDispatch times routed requests end to end (feature
	// extraction, the chosen backend, any fallback).
	SpanDispatch = "reconstruct.dispatch"
)

// validateShape applies the width/k-range checks every backend shares.
func validateShape(enc *encoding.Encoding, entry core.LogEntry) error {
	if entry.TP.Width() != enc.B() {
		return fmt.Errorf("reconstruct: timeprint width %d, want %d: %w", entry.TP.Width(), enc.B(), core.ErrWidth)
	}
	if entry.K < 0 || entry.K > enc.M() {
		return fmt.Errorf("reconstruct: k=%d outside [0,%d]: %w", entry.K, enc.M(), core.ErrKRange)
	}
	return nil
}

// holdsEvaluable is the concrete-evaluation side of a constraint:
// every temporal property (internal/properties) can decide itself
// against a materialized signal, which lets the non-SAT backends
// filter candidates without a CNF encoding.
type holdsEvaluable interface {
	Holds(core.Signal) bool
}

// evaluableAll reports whether every constraint supports concrete
// evaluation.
func evaluableAll(cons []Constraint) bool {
	for _, c := range cons {
		if _, ok := c.(holdsEvaluable); !ok {
			return false
		}
	}
	return true
}

// holdsAll evaluates all constraints against a signal. Callers must
// have established evaluableAll first.
func holdsAll(cons []Constraint, s core.Signal) bool {
	for _, c := range cons {
		if !c.(holdsEvaluable).Holds(s) {
			return false
		}
	}
	return true
}

// errUnsupportedConstraints is the shared refusal for backends that
// can only filter concretely-evaluable constraints.
func errUnsupportedConstraints(name string) error {
	return fmt.Errorf("%s cannot evaluate a constraint without Holds: %w", name, ErrUnsupported)
}

// firstVia derives First from Enumerate(limit=1): every strict
// enumeration either finds a model, proves exhaustion, or errors.
func firstVia(o Oracle, ctx context.Context, entry core.LogEntry, cons []Constraint) (core.Signal, sat.Status, error) {
	sigs, exhausted, err := o.Enumerate(ctx, entry, cons, 1)
	switch {
	case len(sigs) > 0:
		return sigs[0], sat.Sat, nil
	case err != nil:
		return core.Signal{}, sat.Unknown, err
	case exhausted:
		return core.Signal{}, sat.Unsat, nil
	}
	return core.Signal{}, sat.Unknown, fmt.Errorf("reconstruct: %s enumeration incomplete without error", o.Name())
}

// countVia derives Count from Enumerate.
func countVia(o Oracle, ctx context.Context, entry core.LogEntry, cons []Constraint, max int) (int, bool, error) {
	sigs, exhausted, err := o.Enumerate(ctx, entry, cons, max)
	return len(sigs), exhausted, err
}

// checkVia derives Check from First.
func checkVia(o Oracle, ctx context.Context, entry core.LogEntry, cons []Constraint) (sat.Status, error) {
	_, st, err := o.First(ctx, entry, cons)
	return st, err
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

func (o *satOracle) Name() string {
	if o.workers != 1 {
		return "sat-par"
	}
	return "sat"
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

func (o *satOracle) First(ctx context.Context, entry core.LogEntry, cons []Constraint) (core.Signal, sat.Status, error) {
	return firstVia(o, ctx, entry, cons)
}

func (o *satOracle) Count(ctx context.Context, entry core.LogEntry, cons []Constraint, max int) (int, bool, error) {
	return countVia(o, ctx, entry, cons, max)
}

func (o *satOracle) Check(ctx context.Context, entry core.LogEntry, cons []Constraint) (sat.Status, error) {
	return checkVia(o, ctx, entry, cons)
}

// --- algebraic decode ---

// decodeOracle wraps internal/decode: meet-in-the-middle syndrome
// decoding for k <= decode.MaxK. Constraints are applied by concrete
// filtering (Holds), never encoded, so a constraint without Holds is
// ErrUnsupported. Requests share the decoder without a lock: it is
// safe for concurrent use, its pair index built once on first need.
type decodeOracle struct {
	enc *encoding.Encoding
	dec *decode.Decoder
}

// NewDecodeOracle returns the algebraic decoding backend (k <= 4).
func NewDecodeOracle(enc *encoding.Encoding) Oracle {
	return &decodeOracle{enc: enc, dec: decode.New(enc)}
}

func (o *decodeOracle) Name() string { return "decode" }

func (o *decodeOracle) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	if err := validateShape(o.enc, entry); err != nil {
		return nil, false, err
	}
	if entry.K > decode.MaxK {
		return nil, false, fmt.Errorf("decode handles k <= %d, got %d: %w", decode.MaxK, entry.K, ErrUnsupported)
	}
	if !evaluableAll(cons) {
		return nil, false, errUnsupportedConstraints("decode")
	}
	sigs, err := o.dec.Decode(entry)
	if err != nil {
		return nil, false, err
	}
	// Decode returns a fresh slice, so filter it in place.
	out := sigs[:0]
	for _, s := range sigs {
		if !holdsAll(cons, s) {
			continue
		}
		out = append(out, s)
		if limit > 0 && len(out) >= limit && len(out) < len(sigs) {
			return out, false, nil
		}
	}
	return out, true, nil
}

func (o *decodeOracle) First(ctx context.Context, entry core.LogEntry, cons []Constraint) (core.Signal, sat.Status, error) {
	return firstVia(o, ctx, entry, cons)
}

func (o *decodeOracle) Count(ctx context.Context, entry core.LogEntry, cons []Constraint, max int) (int, bool, error) {
	// The unconstrained count has a dedicated non-materializing path.
	if len(cons) == 0 && max <= 0 {
		if err := validateShape(o.enc, entry); err != nil {
			return 0, false, err
		}
		if entry.K > decode.MaxK {
			return 0, false, fmt.Errorf("decode handles k <= %d, got %d: %w", decode.MaxK, entry.K, ErrUnsupported)
		}
		n, err := o.dec.Count(entry)
		return n, err == nil, err
	}
	return countVia(o, ctx, entry, cons, max)
}

func (o *decodeOracle) Check(ctx context.Context, entry core.LogEntry, cons []Constraint) (sat.Status, error) {
	return checkVia(o, ctx, entry, cons)
}

// --- GF(2) brute force ---

// bruteOracle solves by linear algebra alone: Gaussian elimination
// yields the solution coset, whose 2^nullity points are walked and
// filtered by |x| = k and the constraints. It also serves the two
// degenerate cases the dispatcher answers without search — an
// inconsistent system (no solutions) and a rank-pinned one (nullity 0,
// a single candidate read off the echelon form).
type bruteOracle struct {
	enc        *encoding.Encoding
	maxNullity int
}

// NewBruteOracle returns the GF(2) coset-enumeration backend;
// maxNullity bounds the 2^nullity walk (default 28 when <= 0).
func NewBruteOracle(enc *encoding.Encoding, maxNullity int) Oracle {
	if maxNullity <= 0 {
		maxNullity = 28
	}
	return &bruteOracle{enc: enc, maxNullity: maxNullity}
}

func (o *bruteOracle) Name() string { return "brute" }

func (o *bruteOracle) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	if err := validateShape(o.enc, entry); err != nil {
		return nil, false, err
	}
	if !evaluableAll(cons) {
		return nil, false, errUnsupportedConstraints("brute force")
	}
	sys, ok := o.enc.Matrix().Solve(entry.TP)
	if !ok {
		return nil, true, nil // TP outside the column space: no signals
	}
	if sys.Nullity() > o.maxNullity {
		return nil, false, fmt.Errorf("brute force refuses nullity %d > %d: %w", sys.Nullity(), o.maxNullity, ErrUnsupported)
	}
	done := ctx.Done()
	var out []core.Signal
	interrupted, truncated := false, false
	visited := 0
	sys.EnumerateSolutions(o.maxNullity, func(x bitvec.Vector) bool {
		if visited++; visited&1023 == 0 {
			select {
			case <-done:
				interrupted = true
				return false
			default:
			}
		}
		if x.PopCount() != entry.K {
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

func (o *bruteOracle) First(ctx context.Context, entry core.LogEntry, cons []Constraint) (core.Signal, sat.Status, error) {
	return firstVia(o, ctx, entry, cons)
}

func (o *bruteOracle) Count(ctx context.Context, entry core.LogEntry, cons []Constraint, max int) (int, bool, error) {
	return countVia(o, ctx, entry, cons, max)
}

func (o *bruteOracle) Check(ctx context.Context, entry core.LogEntry, cons []Constraint) (sat.Status, error) {
	return checkVia(o, ctx, entry, cons)
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
// selector variable behind and every distinct property string adds a
// permanent guard group, so a session that outgrows the cap is dropped
// on release and the pool clones a fresh one on the next empty take.
const maxSessionGrowth = 2

// NewSessionOracle builds the incremental assumption-based backend for
// enc. Construction pays the one-off A-structure encoding (uncut XOR
// rows, cardinality ladder); every query after that is an assumption
// solve.
func NewSessionOracle(enc *encoding.Encoding, opts SessionOptions) (*SessionOracle, error) {
	proto, err := NewSession(enc, opts)
	if err != nil {
		return nil, err
	}
	return &SessionOracle{proto: proto, free: []*Session{proto.Clone()}, obs: opts.Obs}, nil
}

func (o *SessionOracle) Name() string { return "sat-inc" }

// Supports reports whether a change count fits the session ladder.
func (o *SessionOracle) Supports(k int) bool { return o.proto.Supports(k) }

// TPWidth reports the encoded timeprint width.
func (o *SessionOracle) TPWidth() int { return o.proto.TPWidth() }

func (o *SessionOracle) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	sess, release, err := o.acquire(entry)
	if err != nil {
		return nil, false, err
	}
	defer release()
	sigs, exhausted, err := sess.EnumerateWithin(ctx.Done(), entry, cons, limit)
	return sigs, exhausted, o.mapErr(err)
}

func (o *SessionOracle) First(ctx context.Context, entry core.LogEntry, cons []Constraint) (core.Signal, sat.Status, error) {
	return firstVia(o, ctx, entry, cons)
}

func (o *SessionOracle) Count(ctx context.Context, entry core.LogEntry, cons []Constraint, max int) (int, bool, error) {
	return countVia(o, ctx, entry, cons, max)
}

func (o *SessionOracle) Check(ctx context.Context, entry core.LogEntry, cons []Constraint) (sat.Status, error) {
	sess, release, err := o.acquire(entry)
	if err != nil {
		return sat.Unknown, err
	}
	defer release()
	st, err := sess.Check(entry, cons)
	return st, o.mapErr(err)
}

// acquire validates the entry against the session's fixed shape and
// takes a warm session from the pool, cloning the prototype when the
// pool is empty. The returned func puts the session back.
func (o *SessionOracle) acquire(entry core.LogEntry) (*Session, func(), error) {
	if err := validateShape(o.proto.enc, entry); err != nil {
		return nil, nil, err
	}
	if !o.proto.Supports(entry.K) {
		return nil, nil, fmt.Errorf("session ladder caps k at %d, got %d: %w", o.proto.MaxK(), entry.K, ErrUnsupported)
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

// mapErr translates session errors to the Oracle contract: budget and
// interrupt pass through; anything else (a constraint the session
// cannot selector-guard, e.g. XOR-emitting) becomes ErrUnsupported so
// the dispatcher falls back to a one-shot instance.
func (o *SessionOracle) mapErr(err error) error {
	if err == nil ||
		errors.Is(err, sat.ErrBudget) || errors.Is(err, sat.ErrInterrupted) ||
		errors.Is(err, core.ErrWidth) || errors.Is(err, core.ErrKRange) {
		return err
	}
	return fmt.Errorf("%v: %w", err, ErrUnsupported)
}
