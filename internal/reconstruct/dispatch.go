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
	// RouteDecode: algebraic syndrome decoding, k <= decode.MaxK,
	// constraints filtered by Holds.
	RouteDecode = "decode"
	// RouteBrute: GF(2) coset enumeration, nullity within the budget.
	RouteBrute = "brute"
	// RouteSession: the incremental assumption-based session solver,
	// the residual of the cost model: it answers every request.
	RouteSession = "sat-inc"
	// RouteParallel: cube-split parallel one-shot SAT, by Force only.
	RouteParallel = "sat-par"
	// RouteSAT: serial one-shot SAT, the always-sound reference; it
	// answers by Force and after a forced backend's ErrUnsupported.
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
	// Workers sizes the cube-split parallel backend a Force of
	// "sat-par" uses (<= 0: GOMAXPROCS).
	Workers int
	// SessionMaxK sizes the incremental session's cardinality ladder
	// (default 16); it does not cap k.
	SessionMaxK int
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

// maxNullity caps the brute route's 2^nullity coset walk: beyond it
// SAT search is the better bet.
const maxNullity = 16

// Features are the per-request instance measurements the routing
// function consumes. They come from one GF(2) elimination of [A | TP],
// the same O(b²·m/64) pass the presolve does; no SAT work.
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
//	sat-inc         assumption solve on a warm learned-clause DB, any k
//
// The one-shot SAT backends (sat-par, sat) answer only by Force.
//
// Soundness of the cheap routes is cross-checked continuously: the
// dispatcher runs as its own oracle in the diffcheck corpus.
func Route(f Features) string {
	switch {
	case !f.Consistent || !f.KFeasible:
		return RouteRefuted
	case f.Nullity == 0:
		return RoutePinned
	case f.K <= decode.MaxK:
		return RouteDecode
	case f.Nullity <= maxNullity:
		return RouteBrute
	default:
		return RouteSession
	}
}

// Dispatcher routes each request to the cheapest sound backend and is
// itself an Oracle, so it can be cross-checked against the engines it
// routes between and stacked behind the same service plumbing. The
// backends are shared across requests — the decoder's pair index and
// the session's warm solver amortize the way they do in the service.
// A Dispatcher is safe for concurrent use.
type Dispatcher struct {
	enc  *encoding.Encoding
	opts DispatchOptions

	sat, par, decode, brute Oracle

	// The session prototype is the one costly backend (the A-structure
	// encoding), so it is built on the first request routed to it.
	sessOnce sync.Once
	sess     *SessionOracle
}

// NewDispatcher builds a cost-model router for enc. It fails only on
// an unknown Force name. The cheap backends are built here (the
// decoder's pair index stays lazy); the session on first use.
func NewDispatcher(enc *encoding.Encoding, opts DispatchOptions) (*Dispatcher, error) {
	if !KnownOracle(opts.Force) {
		return nil, fmt.Errorf("reconstruct: unknown oracle %q (want auto|%s|%s|%s|%s|%s)",
			opts.Force, RouteSAT, RouteParallel, RouteSession, RouteDecode, RouteBrute)
	}
	if opts.Force == "auto" {
		opts.Force = ""
	}
	solve := Options{MaxConflicts: opts.MaxConflicts, Obs: opts.Obs}
	return &Dispatcher{
		enc:    enc,
		opts:   opts,
		sat:    NewSATOracle(enc, solve),
		par:    NewParallelSATOracle(enc, opts.Workers, solve),
		decode: NewDecodeOracle(enc),
		brute:  NewBruteOracle(enc, maxNullity),
	}, nil
}

func (d *Dispatcher) session() *SessionOracle {
	d.sessOnce.Do(func() {
		d.sess = NewSessionOracle(d.enc, SessionOptions{
			MaxK:         d.opts.sessionMaxK(),
			MaxConflicts: d.opts.MaxConflicts,
			Obs:          d.opts.Obs,
		})
	})
	return d.sess
}

// Features measures one request. It returns the typed errors
// (core.ErrWidth, core.ErrKRange, ErrConstraint) for malformed
// requests, so every route refuses them alike.
func (d *Dispatcher) Features(entry core.LogEntry, cons []Constraint) (Features, error) {
	if err := validate(d.enc, entry, cons); err != nil {
		return Features{}, err
	}
	m, b := d.enc.M(), d.enc.B()
	f := Features{M: m, B: b, K: entry.K}
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
	return f, nil
}

// oracleFor maps a route to its backend.
func (d *Dispatcher) oracleFor(route string) Oracle {
	switch route {
	case RoutePinned, RouteBrute:
		return d.brute
	case RouteDecode:
		return d.decode
	case RouteSession:
		return d.session()
	case RouteParallel:
		return d.par
	default:
		return d.sat
	}
}

// EnumerateRouted is Enumerate plus the routing Decision, for callers
// that report or check how a request was routed.
func (d *Dispatcher) EnumerateRouted(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, Decision, error) {
	defer d.opts.Obs.StartSpan(SpanDispatch).End()
	f, err := d.Features(entry, cons)
	if err != nil {
		return nil, false, Decision{}, err
	}
	route := d.opts.Force
	if route == "" {
		route = Route(f)
	}
	dec := Decision{Chosen: route, Route: route, Features: f}
	d.opts.Obs.Counter(MetricDispatchChosenPrefix + route).Inc()
	if route == RouteRefuted {
		// The elimination already proved the candidate set empty.
		return nil, true, dec, nil
	}

	sigs, exhausted, err := d.oracleFor(route).Enumerate(ctx, entry, cons, limit)
	if errors.Is(err, ErrUnsupported) {
		// A forced backend could not express the request: serial SAT
		// is always sound, so re-run there and count the fallback.
		d.opts.Obs.Counter(MetricDispatchFallback).Inc()
		dec.Route, dec.FellBack = RouteSAT, true
		sigs, exhausted, err = d.sat.Enumerate(ctx, entry, cons, limit)
	}
	return sigs, exhausted, dec, err
}

// Enumerate implements Oracle by cost-model routing.
func (d *Dispatcher) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	sigs, exhausted, _, err := d.EnumerateRouted(ctx, entry, cons, limit)
	return sigs, exhausted, err
}
