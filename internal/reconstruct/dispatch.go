package reconstruct

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/sat"
)

// Routes the dispatcher can pick. Every route except the two
// linear-algebra answers (refuted, pinned) names a backend oracle;
// refuted and pinned are decided inside the brute oracle's GF(2) walk
// with zero search.
const (
	// RouteRefuted: feature extraction already proved the candidate set
	// empty (TP outside the column space, or k infeasible against the
	// presolve-fixed positions). Answered inline, no backend runs.
	RouteRefuted = "refuted"
	// RoutePinned: the parity system has full rank (nullity 0), so the
	// coset is a single point — read it off the echelon form.
	RoutePinned = "pinned"
	// RouteDecode: algebraic syndrome decoding, k <= decode.MaxK and
	// every constraint evaluable (filtered by Holds).
	RouteDecode = "decode"
	// RouteBrute: GF(2) coset enumeration, nullity within the budget.
	RouteBrute = "brute"
	// RouteSession: the incremental assumption-based session solver.
	RouteSession = "sat-inc"
	// RouteParallel: cube-split parallel one-shot SAT.
	RouteParallel = "sat-par"
	// RouteSAT: serial one-shot SAT — the always-sound residual.
	RouteSAT = "sat"
)

// KnownOracle reports whether name is a valid DispatchOptions.Force
// value ("auto" and "" mean cost-model routing).
func KnownOracle(name string) bool {
	switch name {
	case "", "auto", RouteSAT, RouteParallel, RouteSession, RouteDecode, RouteBrute:
		return true
	}
	return false
}

// DispatchOptions tune the cost-model router.
type DispatchOptions struct {
	// Force pins every request to one backend: "sat", "sat-par",
	// "sat-inc", "decode" or "brute". "" or "auto" means
	// cost-model routing. A forced backend that cannot express a
	// request still falls back to serial SAT (and counts a fallback).
	Force string
	// Workers > 1 enables the cube-split parallel route for requests
	// that fall through to one-shot SAT.
	Workers int
	// SessionMaxK bounds the incremental session's cardinality ladder
	// (default 16).
	SessionMaxK int
	// MaxNullity caps the brute route's 2^nullity coset walk
	// (default 16 — beyond that SAT search is the better bet).
	MaxNullity int
	// MaxConflicts bounds SAT effort per solve; 0 means unlimited.
	MaxConflicts int64
	// Obs receives the dispatch counters/spans and flows into every
	// backend; nil is fully supported.
	Obs *obs.Registry
}

func (o DispatchOptions) sessionMaxK() int {
	if o.SessionMaxK <= 0 {
		return 16
	}
	return o.SessionMaxK
}

func (o DispatchOptions) maxNullity() int {
	if o.MaxNullity <= 0 {
		return 16
	}
	return o.MaxNullity
}

// Features are the per-request instance measurements the routing
// function consumes. They come from one GF(2) elimination of [A | TP]
// — the same O(b²·m/64) pass the presolve does — plus constraint
// introspection; no SAT work.
type Features struct {
	// M, B, K: instance geometry and requested change count.
	M, B, K int
	// Rank of the parity system A; Nullity = M - Rank is the log2 of
	// the solution-coset size.
	Rank, Nullity int
	// Fixed counts positions pinned by unit rows of the reduced
	// system; ForcedTrue of those are pinned to 1.
	Fixed, ForcedTrue int
	// Consistent is false when TP is outside the column space of A;
	// KFeasible is false when k contradicts the fixed positions. Either
	// refutes the request with zero search.
	Consistent, KFeasible bool
	// Evaluable reports whether every constraint can be checked
	// concretely (Holds), which the non-SAT backends need.
	Evaluable bool
	// SessionOK reports whether the incremental session route could
	// express the request (k within the ladder).
	SessionOK bool
	// Workers mirrors DispatchOptions.Workers for the routing table.
	Workers int
}

// Decision records how a request was routed.
type Decision struct {
	// Chosen is the cost model's pick; Route is the backend that
	// actually answered (differs after a fallback).
	Chosen, Route string
	// FellBack is true when the chosen backend returned ErrUnsupported
	// and the request was re-run on serial SAT.
	FellBack bool
	// Features are the measurements the choice was made from.
	Features Features
}

// Route is the pure cost-model routing table, pinned by unit tests so
// edits are deliberate. The order encodes the cost ranking:
//
//	refuted/pinned  O(b²·m/64) elimination, zero search
//	decode          O(m²) pair index walk, k <= 4, constraints by Holds
//	brute           O(2^nullity · m/64) coset walk, constraints by Holds
//	sat-inc         assumption solve on a warm learned-clause DB
//	sat-par / sat   one-shot CNF build + CDCL search
//
// Soundness of the cheap routes is cross-checked continuously: the
// dispatcher runs as its own oracle in the diffcheck corpus.
func Route(f Features, opts DispatchOptions) string {
	switch {
	case !f.Consistent || !f.KFeasible:
		return RouteRefuted
	case f.Nullity == 0:
		return RoutePinned
	case f.K <= decode.MaxK && f.Evaluable:
		return RouteDecode
	case f.Nullity <= opts.maxNullity() && f.Evaluable:
		return RouteBrute
	case f.SessionOK:
		return RouteSession
	case f.Workers > 1:
		return RouteParallel
	default:
		return RouteSAT
	}
}

// Dispatcher routes each request to the cheapest sound backend and is
// itself an Oracle (Name "dispatch"), so it can be cross-checked
// against the engines it routes between and stacked behind the same
// service plumbing. Backends are built lazily and shared across
// requests — the decoder's pair index and the session's warm solver
// amortize the way they do in the service. A Dispatcher is safe for
// concurrent use.
type Dispatcher struct {
	enc  *encoding.Encoding
	opts DispatchOptions

	satOnce  sync.Once
	satO     Oracle
	parOnce  sync.Once
	parO     Oracle
	decOnce  sync.Once
	decO     Oracle
	bruOnce  sync.Once
	bruO     Oracle
	sessOnce sync.Once
	sessO    *SessionOracle
	sessErr  error
}

// NewDispatcher builds a cost-model router for enc. It fails only on
// an unknown Force name; backends are constructed on first use.
func NewDispatcher(enc *encoding.Encoding, opts DispatchOptions) (*Dispatcher, error) {
	if !KnownOracle(opts.Force) {
		return nil, fmt.Errorf("reconstruct: unknown oracle %q (want auto|%s|%s|%s|%s|%s)",
			opts.Force, RouteSAT, RouteParallel, RouteSession, RouteDecode, RouteBrute)
	}
	if opts.Force == "auto" {
		opts.Force = ""
	}
	return &Dispatcher{enc: enc, opts: opts}, nil
}

func (d *Dispatcher) Name() string { return "dispatch" }

// solveOptions are the one-shot SAT options every CNF backend shares.
func (d *Dispatcher) solveOptions() Options {
	return Options{MaxConflicts: d.opts.MaxConflicts, Obs: d.opts.Obs}
}

func (d *Dispatcher) sat() Oracle {
	d.satOnce.Do(func() { d.satO = NewSATOracle(d.enc, d.solveOptions()) })
	return d.satO
}

func (d *Dispatcher) par() Oracle {
	d.parOnce.Do(func() { d.parO = NewParallelSATOracle(d.enc, d.opts.Workers, d.solveOptions()) })
	return d.parO
}

func (d *Dispatcher) decode() Oracle {
	d.decOnce.Do(func() { d.decO = NewDecodeOracle(d.enc) })
	return d.decO
}

func (d *Dispatcher) brute() Oracle {
	d.bruOnce.Do(func() { d.bruO = NewBruteOracle(d.enc, d.opts.maxNullity()) })
	return d.bruO
}

func (d *Dispatcher) session() (*SessionOracle, error) {
	d.sessOnce.Do(func() {
		d.sessO, d.sessErr = NewSessionOracle(d.enc, SessionOptions{
			MaxK:         d.opts.sessionMaxK(),
			MaxConflicts: d.opts.MaxConflicts,
			Obs:          d.opts.Obs,
		})
	})
	return d.sessO, d.sessErr
}

// Features measures one request. It returns the typed shape errors
// (core.ErrWidth, core.ErrKRange) for malformed requests.
func (d *Dispatcher) Features(entry core.LogEntry, cons []Constraint) (Features, error) {
	if err := validateShape(d.enc, entry); err != nil {
		return Features{}, err
	}
	m, b := d.enc.M(), d.enc.B()
	f := Features{
		M: m, B: b, K: entry.K,
		Evaluable: evaluableAll(cons),
		Workers:   d.opts.Workers,
	}
	ech := d.enc.Matrix().Eliminate(entry.TP)
	f.Rank, f.Nullity, f.Consistent = ech.Rank, m-ech.Rank, ech.Consistent
	if f.Consistent {
		for i, row := range ech.Rows {
			if row.PopCount() == 1 {
				f.Fixed++
				if ech.RHS[i] {
					f.ForcedTrue++
				}
			}
		}
		f.KFeasible = kFeasible(entry.K, m, f.Fixed, f.ForcedTrue)
	}
	f.SessionOK = entry.K <= min(d.opts.sessionMaxK(), m)
	return f, nil
}

// oracleFor maps a route to its backend.
func (d *Dispatcher) oracleFor(route string) (Oracle, error) {
	switch route {
	case RoutePinned, RouteBrute:
		return d.brute(), nil
	case RouteDecode:
		return d.decode(), nil
	case RouteSession:
		return d.session()
	case RouteParallel:
		return d.par(), nil
	default:
		return d.sat(), nil
	}
}

// EnumerateRouted is Enumerate plus the routing Decision — the service
// layer consumes it to keep its per-route counters.
func (d *Dispatcher) EnumerateRouted(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, Decision, error) {
	defer d.opts.Obs.StartSpan(SpanDispatch).End()
	f, err := d.Features(entry, cons)
	if err != nil {
		return nil, false, Decision{}, err
	}
	route := d.opts.Force
	if route == "" {
		route = Route(f, d.opts)
	}
	dec := Decision{Chosen: route, Route: route, Features: f}
	d.opts.Obs.Counter(MetricDispatchChosenPrefix + route).Inc()
	if route == RouteRefuted {
		// The elimination already proved the candidate set empty.
		return nil, true, dec, nil
	}

	var sigs []core.Signal
	var exhausted bool
	o, err := d.oracleFor(route)
	if err == nil {
		sigs, exhausted, err = o.Enumerate(ctx, entry, cons, limit)
	}
	if err != nil && (errors.Is(err, ErrUnsupported) || !isRequestError(err)) && route != RouteSAT {
		// Mispredict (or a backend that failed to build): serial SAT is
		// always sound — re-run there and count the fallback.
		d.opts.Obs.Counter(MetricDispatchFallback).Inc()
		dec.Route, dec.FellBack = RouteSAT, true
		sigs, exhausted, err = d.sat().Enumerate(ctx, entry, cons, limit)
	}
	return sigs, exhausted, dec, err
}

// isRequestError reports whether err is the request's own fault —
// malformed shape or an incomplete-search outcome — rather than a
// backend limitation worth a fallback.
func isRequestError(err error) bool {
	return errors.Is(err, core.ErrWidth) || errors.Is(err, core.ErrKRange) ||
		errors.Is(err, sat.ErrBudget) || errors.Is(err, sat.ErrInterrupted)
}

// Enumerate implements Oracle by cost-model routing.
func (d *Dispatcher) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	sigs, exhausted, _, err := d.EnumerateRouted(ctx, entry, cons, limit)
	return sigs, exhausted, err
}

func (d *Dispatcher) First(ctx context.Context, entry core.LogEntry, cons []Constraint) (core.Signal, sat.Status, error) {
	return firstVia(d, ctx, entry, cons)
}

func (d *Dispatcher) Count(ctx context.Context, entry core.LogEntry, cons []Constraint, max int) (int, bool, error) {
	return countVia(d, ctx, entry, cons, max)
}

func (d *Dispatcher) Check(ctx context.Context, entry core.LogEntry, cons []Constraint) (sat.Status, error) {
	return checkVia(d, ctx, entry, cons)
}
