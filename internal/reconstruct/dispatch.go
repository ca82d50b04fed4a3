package reconstruct

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encoding"
	"repro/internal/gf2"
	"repro/internal/obs"
)

// Routes the dispatcher can pick. Every route is chosen from the one
// elimination feature extraction did; refuted, pinned and brute answer
// from it by linear algebra alone, with zero search, and the others
// name the engine the dispatcher calls.
const (
	// RouteRefuted: feature extraction already proved the candidate set
	// empty (TP outside the column space, or k infeasible against the
	// presolve-fixed positions). Answered inline, no backend runs.
	RouteRefuted = "refuted"
	// RoutePinned: the parity system has full rank (nullity 0), so the
	// coset is a single point — read it off the echelon form.
	RoutePinned = "pinned"
	// RouteDecode: algebraic syndrome decoding, k <= decode.MaxK (and
	// k <= 2 past decode.MaxPairM), constraints filtered by Holds.
	RouteDecode = "decode"
	// RouteBrute: the GF(2) coset walk over the points with at most k
	// ones on the free columns, when it visits at most 2^16 of them.
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
	// SessionMaxK sizes the incremental session's initial cardinality
	// ladder (default 16); a query past it widens the ladder in place,
	// so it does not cap k.
	SessionMaxK int
	// MaxConflicts bounds SAT effort per solve; 0 means unlimited.
	MaxConflicts int64
	// Obs receives the dispatch counters/spans and flows into every
	// backend; nil is fully supported.
	Obs *obs.Registry
}

// bruteRouteVisits is the most coset points (gf2.WalkVisits) for
// which Route picks the brute walk over SAT search: 2^16, the whole
// coset at nullity 16.
const bruteRouteVisits = 1 << 16

// Features are the per-request instance measurements the routing
// function consumes. measure reads them off one O(b²·m/64) GF(2)
// elimination of [A | TP], with no SAT work; the coset walk and the
// one-shot SAT presolve answer from that same elimination, and the
// presolve reports these counts as its PresolveStats.
type Features struct {
	// M, B, K: instance geometry and requested change count.
	M, B, K int
	// Rank of the parity system A; Nullity = M - Rank is the log2 of
	// the solution-coset size, and the brute walk visits
	// gf2.WalkVisits(Nullity, K) of its points.
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
//	decode          O(m²) pair index walk, k <= 4 (k <= 2 past
//	                decode.MaxPairM), constraints by Holds
//	brute           O(Σ C(n,≤k) · m/64) coset walk, n = nullity,
//	                at most 2^16 points, constraints by Holds
//	sat-inc         assumption solve on a warm learned-clause DB, any k
//
// A request past a route's reach goes to the next one. The one-shot
// SAT routes (sat-par, sat) answer only by Force and after a fallback.
//
// Soundness of the cheap routes is cross-checked continuously: the
// dispatcher runs as its own oracle in the diffcheck corpus.
func Route(f Features) string {
	switch {
	case !f.Consistent || !f.KFeasible:
		return RouteRefuted
	case f.Nullity == 0:
		return RoutePinned
	case decodable(f.M, f.K):
		return RouteDecode
	case gf2.WalkVisits(f.Nullity, f.K) <= bruteRouteVisits:
		return RouteBrute
	default:
		return RouteSession
	}
}

// Dispatcher routes each request to the cheapest sound engine and
// calls it directly: the coset walk reads the request's one
// elimination, the decoder and the session pool answer decode and
// sat-inc, and the one-shot SAT instance is built from the same
// elimination. The engines are shared across requests — the decoder's
// pair index and the session's warm solver amortize the way they do in
// the service. A Dispatcher is safe for concurrent use.
type Dispatcher struct {
	enc  *encoding.Encoding
	opts DispatchOptions
	dec  *decode.Decoder

	// The session prototype is the one costly engine (the A-structure
	// encoding), so it is built on the first request routed to it.
	sessOnce sync.Once
	sess     *SessionOracle
}

// NewDispatcher builds a cost-model router for enc. It fails only on
// an unknown Force name. The decoder is built here (O(m); its pair
// index stays lazy), the session on first use.
func NewDispatcher(enc *encoding.Encoding, opts DispatchOptions) (*Dispatcher, error) {
	if !KnownOracle(opts.Force) {
		return nil, fmt.Errorf("reconstruct: unknown oracle %q (want auto|%s|%s|%s|%s|%s)",
			opts.Force, RouteSAT, RouteParallel, RouteSession, RouteDecode, RouteBrute)
	}
	if opts.Force == "auto" {
		opts.Force = ""
	}
	return &Dispatcher{enc: enc, opts: opts, dec: decode.New(enc)}, nil
}

func (d *Dispatcher) session() *SessionOracle {
	d.sessOnce.Do(func() {
		d.sess = NewSessionOracle(d.enc, SessionOptions{
			MaxK:         d.opts.SessionMaxK,
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
	f, _, err := measure(d.enc, entry, cons)
	return f, err
}

// measure validates a request, row-reduces [A | TP] once and reads
// the Features off the echelon form, which it also returns: every
// route is chosen from this one elimination, and the coset walk, the
// one-shot SAT presolve and BruteForce answer from it.
func measure(enc *encoding.Encoding, entry core.LogEntry, cons []Constraint) (Features, gf2.Echelon, error) {
	if err := validate(enc, entry, cons); err != nil {
		return Features{}, gf2.Echelon{}, err
	}
	m, b := enc.M(), enc.B()
	f := Features{M: m, B: b, K: entry.K}
	ech := enc.Matrix().Eliminate(entry.TP)
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
	return f, ech, nil
}

// EnumerateRouted is Enumerate plus the routing Decision, for callers
// that report or check how a request was routed.
func (d *Dispatcher) EnumerateRouted(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, Decision, error) {
	defer d.opts.Obs.StartSpan(SpanDispatch).End()
	f, ech, err := measure(d.enc, entry, cons)
	if err != nil {
		return nil, false, Decision{}, err
	}
	route := d.opts.Force
	if route == "" {
		route = Route(f)
	}
	dec := Decision{Chosen: route, Route: route, Features: f}
	d.opts.Obs.Counter(MetricDispatchChosenPrefix + route).Inc()

	var sigs []core.Signal
	var exhausted bool
	switch route {
	case RouteRefuted:
		// The elimination already proved the candidate set empty.
		return nil, true, dec, nil
	case RoutePinned, RouteBrute:
		sigs, exhausted, err = walkCoset(ctx, ech, entry.K, cons, limit, d.opts.Obs)
	case RouteDecode:
		sigs, exhausted, err = decodeFiltered(d.dec, d.enc.M(), entry, cons, limit)
	case RouteSession:
		sigs, exhausted, err = d.session().Enumerate(ctx, entry, cons, limit)
	default:
		sigs, exhausted, err = d.oneShot(ctx, route, entry, cons, f, ech, limit)
	}
	if errors.Is(err, ErrUnsupported) {
		// A forced engine could not express the request: serial SAT
		// is always sound, so re-run there and count the fallback.
		d.opts.Obs.Counter(MetricDispatchFallback).Inc()
		dec.Route, dec.FellBack = RouteSAT, true
		sigs, exhausted, err = d.oneShot(ctx, RouteSAT, entry, cons, f, ech, limit)
	}
	return sigs, exhausted, dec, err
}

// oneShot answers a request on a fresh one-shot SAT instance built
// from its elimination: serially for sat, on the cube-split portfolio
// of DispatchOptions.Workers for sat-par (1 worker runs serially).
func (d *Dispatcher) oneShot(ctx context.Context, route string, entry core.LogEntry, cons []Constraint, f Features, ech gf2.Echelon, limit int) ([]core.Signal, bool, error) {
	r := build(d.enc, entry, cons, Options{MaxConflicts: d.opts.MaxConflicts, Obs: d.opts.Obs}, f, ech)
	if route == RouteParallel && d.opts.Workers != 1 {
		stop := r.builder.S.InterruptOnDone(ctx.Done())
		defer stop()
		return r.EnumerateParallelStrict(limit, d.opts.Workers)
	}
	return r.EnumerateWithin(ctx.Done(), limit)
}

// Enumerate finds up to limit candidates (limit <= 0: all) by
// cost-model routing. Its exhausted result is true only when the full
// candidate space was covered, and a truncated search always carries
// an explaining error. The error contract is typed:
//
//   - core.ErrWidth / core.ErrKRange / ErrConstraint: the request is
//     malformed for the encoding (wrong timeprint width, k outside
//     [0, m], a constraint that does not fit m). No route can answer
//     it.
//   - sat.ErrBudget / sat.ErrInterrupted: the search stopped early
//     (conflict budget, ctx cancellation). Signals returned so far are
//     valid but no completeness claim holds.
//
// ErrUnsupported never escapes: a forced engine that returns it is
// re-run on serial SAT. ctx must be non-nil.
func (d *Dispatcher) Enumerate(ctx context.Context, entry core.LogEntry, cons []Constraint, limit int) ([]core.Signal, bool, error) {
	sigs, exhausted, _, err := d.EnumerateRouted(ctx, entry, cons, limit)
	return sigs, exhausted, err
}
