package diffcheck

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encoding"
	"repro/internal/gf2"
	"repro/internal/obs"
	"repro/internal/properties"
	"repro/internal/reconstruct"
	"repro/internal/sat"
)

// exhaustiveMaxM bounds the 2^m exhaustive concretization oracle.
const exhaustiveMaxM = 16

// sessionMaxK sizes the incremental-session oracle's initial
// cardinality ladder; a larger k widens the ladder in place.
const sessionMaxK = 16

// oracle is one independent Signal Reconstruction implementation. run
// must return the complete candidate set for the entry (no limit); the
// harness canonicalizes and compares the sets.
type oracle struct {
	name    string
	applies func(cs CaseSpec) bool
	run     func(enc *encoding.Encoding, entry core.LogEntry) ([]core.Signal, error)
}

// buildOracles assembles every oracle available in the repository:
//
//   - decode:     algebraic syndrome decoding (internal/decode), k <= 4
//   - sat:        serial CDCL enumeration (internal/reconstruct)
//   - sat-inc:    incremental assumption-based session solver with
//     in-search Gaussian elimination, queried twice against one
//     retained solver (reuse, blocking cleanup, and the live matrix
//     carried across SolveAssuming retraction)
//   - sat-par-N:  cube-split parallel portfolio with N workers
//   - brute:      GF(2) coset walk, within reconstruct.BruteMaxVisits
//   - exhaustive: 2^m concretization (internal/core), m <= 16
//   - dispatch:   the cost-model router itself — whatever backend it
//     picks must agree with all of the above, so routing mistakes are
//     caught by the corpus
//
// sat-first-par additionally races the parallel first-solution driver
// and checks membership of its answer in the serial set (it cannot be
// compared as a set, so it is folded into the sat oracle's runner).
//
// reg, when non-nil, receives the SAT-path solver metrics; the other
// oracles have no solver underneath and publish nothing.
func buildOracles(workers []int, reg *obs.Registry) []oracle {
	oracles := []oracle{
		{
			name:    "decode",
			applies: func(cs CaseSpec) bool { return cs.K <= decode.MaxK },
			run: func(enc *encoding.Encoding, entry core.LogEntry) ([]core.Signal, error) {
				dec := decode.New(enc)
				sigs, err := dec.Decode(entry)
				if err != nil {
					return nil, err
				}
				// Count must agree with the materialized set — the
				// fast-path counting satellite rides the same oracle.
				n, err := dec.Count(entry)
				if err != nil {
					return nil, err
				}
				if n != len(sigs) {
					return nil, fmt.Errorf("decode.Count=%d but Decode returned %d signals", n, len(sigs))
				}
				return sigs, nil
			},
		},
		{
			name:    "sat",
			applies: func(CaseSpec) bool { return true },
			run: func(enc *encoding.Encoding, entry core.LogEntry) ([]core.Signal, error) {
				r, err := reconstruct.New(enc, entry, nil, reconstruct.Options{Obs: reg})
				if err != nil {
					return nil, err
				}
				sigs, exhausted, err := r.EnumerateStrict(0)
				if err != nil {
					return nil, err
				}
				if !exhausted {
					return nil, fmt.Errorf("serial enumeration not exhausted")
				}
				return sigs, nil
			},
		},
		{
			// The incremental session path: the same CDCL engine, but
			// driven through selector assumptions against a retained
			// solver (uncut parity rows + in-search Gauss) instead of a
			// per-entry formula. Querying twice exercises solver reuse —
			// the second run sees the first run's learned clauses and
			// must not see its retracted blocking clauses, and its live
			// matrix must survive that retraction and blocking cleanup.
			name:    "sat-inc",
			applies: func(CaseSpec) bool { return true },
			run: func(enc *encoding.Encoding, entry core.LogEntry) ([]core.Signal, error) {
				sess := reconstruct.NewSession(enc, reconstruct.SessionOptions{MaxK: sessionMaxK, Obs: reg})
				first, exhausted, err := sess.Query(entry, nil, 0)
				if err != nil {
					return nil, err
				}
				if !exhausted {
					return nil, fmt.Errorf("session enumeration not exhausted")
				}
				again, exhausted, err := sess.Query(entry, nil, 0)
				if err != nil {
					return nil, fmt.Errorf("session re-query: %w", err)
				}
				if !exhausted {
					return nil, fmt.Errorf("session re-query not exhausted")
				}
				if len(again) != len(first) {
					return nil, fmt.Errorf("session re-query returned %d signals, first run %d", len(again), len(first))
				}
				return first, nil
			},
		},
		{
			name: "brute",
			applies: func(cs CaseSpec) bool {
				// The nullity is at most m, so within the oracle's own
				// ceiling at nullity m BruteForce never refuses.
				return gf2.WalkVisits(cs.M, cs.K) <= reconstruct.BruteMaxVisits
			},
			run: func(enc *encoding.Encoding, entry core.LogEntry) ([]core.Signal, error) {
				return reconstruct.BruteForce(enc, entry, 0)
			},
		},
		{
			name:    "exhaustive",
			applies: func(cs CaseSpec) bool { return cs.M <= exhaustiveMaxM },
			run: func(enc *encoding.Encoding, entry core.LogEntry) ([]core.Signal, error) {
				return core.Concretize(enc, entry), nil
			},
		},
		{
			name:    "dispatch",
			applies: func(CaseSpec) bool { return true },
			run: func(enc *encoding.Encoding, entry core.LogEntry) ([]core.Signal, error) {
				disp, err := reconstruct.NewDispatcher(enc, reconstruct.DispatchOptions{Workers: 2, Obs: reg})
				if err != nil {
					return nil, err
				}
				sigs, exhausted, err := disp.Enumerate(context.Background(), entry, nil, 0)
				if err != nil {
					return nil, err
				}
				if !exhausted {
					return nil, fmt.Errorf("dispatch enumeration not exhausted")
				}
				return sigs, nil
			},
		},
	}
	for _, w := range workers {
		w := w
		oracles = append(oracles, oracle{
			name:    fmt.Sprintf("sat-par-%d", w),
			applies: func(CaseSpec) bool { return true },
			run: func(enc *encoding.Encoding, entry core.LogEntry) ([]core.Signal, error) {
				r, err := reconstruct.New(enc, entry, nil, reconstruct.Options{Obs: reg})
				if err != nil {
					return nil, err
				}
				sigs, exhausted, err := r.EnumerateParallelStrict(0, w)
				if err != nil {
					return nil, err
				}
				if !exhausted {
					return nil, fmt.Errorf("parallel enumeration (workers=%d) not exhausted", w)
				}
				// The racing first-solution driver must produce a member
				// of the full set (or agree the set is empty).
				first, st, err := r.FirstParallel(w)
				if err != nil {
					return nil, err
				}
				if (st == sat.Sat) != (len(sigs) > 0) {
					return nil, fmt.Errorf("FirstParallel status %v but %d candidates", st, len(sigs))
				}
				if len(sigs) > 0 {
					found := false
					for _, s := range sigs {
						if s.Equal(first) {
							found = true
							break
						}
					}
					if !found {
						return nil, fmt.Errorf("FirstParallel returned a non-member candidate %s", first)
					}
				}
				return sigs, nil
			},
		})
	}
	return oracles
}

// windowFor draws the window of a case's constrained leg from its
// encoding seed, so Replay regenerates it: half the trace at a random
// offset, which holds the planted signal in some cases and not others.
func windowFor(cs CaseSpec) properties.Window {
	w := max(cs.M/2, 1)
	lo := rand.New(rand.NewSource(cs.EncSeed)).Intn(cs.M - w + 1)
	return properties.Window{Lo: lo, Hi: lo + w}
}

// runWindowCase is the constrained leg of a case with k <= decode.MaxK.
// Under the case's window three answers must agree: the dispatcher's,
// which must come from the decode route or from the linear algebra
// that precedes it, the serial SAT oracle's, which encodes the window,
// and the decoder's candidates filtered by Holds.
func runWindowCase(rep *Report, cs CaseSpec, enc *encoding.Encoding, entry core.LogEntry, truth core.Signal, reg *obs.Registry) error {
	if cs.K > decode.MaxK {
		return nil
	}
	win := windowFor(cs)
	cons := []reconstruct.Constraint{win}
	name := func(oracle string) string { return oracle + "+" + win.String() }

	disp, err := reconstruct.NewDispatcher(enc, reconstruct.DispatchOptions{Workers: 2, Obs: reg})
	if err != nil {
		return err
	}
	routed, exhausted, dec, err := disp.EnumerateRouted(context.Background(), entry, cons, 0)
	if err != nil {
		return fmt.Errorf("oracle %s on [%s]: %w", name("dispatch"), cs, err)
	}
	if !exhausted {
		return fmt.Errorf("oracle %s on [%s]: enumeration not exhausted", name("dispatch"), cs)
	}
	switch dec.Route {
	case reconstruct.RouteDecode, reconstruct.RoutePinned, reconstruct.RouteRefuted:
	default:
		return fmt.Errorf("oracle %s on [%s]: routed to %s, want decode", name("dispatch"), cs, dec.Route)
	}

	r, err := reconstruct.New(enc, entry, cons, reconstruct.Options{Obs: reg})
	if err != nil {
		return fmt.Errorf("oracle %s on [%s]: %w", name("sat"), cs, err)
	}
	solved, exhausted, err := r.EnumerateStrict(0)
	if err != nil {
		return fmt.Errorf("oracle %s on [%s]: %w", name("sat"), cs, err)
	}
	if !exhausted {
		return fmt.Errorf("oracle %s on [%s]: enumeration not exhausted", name("sat"), cs)
	}

	decoded, err := decode.New(enc).Decode(entry)
	if err != nil {
		return fmt.Errorf("oracle %s on [%s]: %w", name("decode"), cs, err)
	}
	var filtered []core.Signal
	for _, s := range decoded {
		if win.Holds(s) {
			filtered = append(filtered, s)
		}
	}

	inWindow := win.Holds(truth)
	results := []result{
		collect(rep, cs, name("dispatch"), routed, truth, inWindow),
		collect(rep, cs, name("sat"), solved, truth, inWindow),
		collect(rep, cs, name("decode"), filtered, truth, inWindow),
	}
	n := comparePairs(rep, cs, results)
	rep.Comparisons += n
	rep.WindowComparisons += n
	return nil
}
