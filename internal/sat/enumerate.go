package sat

import (
	"errors"
	"fmt"
)

// Typed sentinel errors of the enumeration layer, in the style of the
// core.ErrCorrupt family: callers classify an incomplete AllSAT with
// errors.Is instead of guessing from a bare Unknown status.
var (
	// ErrBudget reports that MaxConflicts was exhausted mid-enumeration:
	// the models delivered so far are valid but the space was NOT
	// exhausted, and no completeness claim may be made.
	ErrBudget = errors.New("sat: conflict budget exhausted")
	// ErrInterrupted reports that Interrupt stopped the enumeration —
	// the cooperative-cancellation analogue of ErrBudget.
	ErrInterrupted = errors.New("sat: solve interrupted")
)

// EnumerateModels finds satisfying assignments one after another,
// projecting each model onto the given variables (1-based). After each
// model, a blocking clause over the projection is added, so successive
// models differ on at least one projected variable. Enumeration stops
// when fn returns false, when limit models were produced (limit <= 0
// means unbounded), or when the formula becomes unsatisfiable.
//
// It returns the number of models delivered and the final status: Unsat
// when the space was exhausted, Sat when stopped early by fn or limit.
// When the conflict budget ran out the status is Unknown and the error
// wraps ErrBudget; when an Interrupt stopped the search the error
// wraps ErrInterrupted. Both are the only non-nil error cases, so
// "err == nil" is exactly the callers' old "enumeration accounted for"
// condition — the silent Unknown return this API used to have is gone.
//
// The blocking clauses remain in the solver; enumeration is a
// consuming operation.
//
// The model map passed to fn is REUSED across iterations to avoid
// per-model allocation churn: fn must copy any values it wants to keep
// and must not retain the map beyond the call.
func (s *Solver) EnumerateModels(projection []int, limit int, fn func(model map[int]bool) bool) (int, Status, error) {
	return s.enumerate(nil, 0, projection, limit, fn)
}

// EnumerateAssuming enumerates models under the given assumption
// literals, with the same projection/limit/fn contract as
// EnumerateModels — but without consuming the solver. The blocking
// clauses are guarded by a selector variable that is assumed alongside
// the caller's assumptions and dropped (together with every blocking
// clause) when the enumeration returns, so a reused session solver is
// left exactly as constrained as before the call. Unsat here means
// "exhausted under these assumptions", not that the formula is
// unsatisfiable.
func (s *Solver) EnumerateAssuming(assumptions []int, projection []int, limit int, fn func(model map[int]bool) bool) (int, Status, error) {
	sel := s.acquireSelector()
	defer func() {
		s.DropGuard(sel)
		s.retireSelector(sel)
	}()
	assumps := make([]int, 0, len(assumptions)+1)
	assumps = append(assumps, assumptions...)
	assumps = append(assumps, sel)
	return s.enumerate(assumps, sel, projection, limit, fn)
}

// enumerate is the model loop EnumerateModels and EnumerateAssuming
// share. With sel == 0 it solves without assumptions and blocks each
// model with a plain clause; otherwise it solves under assumps and
// guards each blocking clause by sel.
func (s *Solver) enumerate(assumps []int, sel int, projection []int, limit int, fn func(model map[int]bool) bool) (int, Status, error) {
	models := s.Obs.Counter(MetricEnumModels)
	count := 0
	model := make(map[int]bool, len(projection))
	blocking := make([]int, 0, len(projection))
	for {
		var st Status
		if sel == 0 {
			st = s.Solve()
		} else {
			st = s.SolveAssuming(assumps)
		}
		if st != Sat {
			if st == Unknown {
				if s.Interrupted() {
					return count, Unknown, fmt.Errorf("sat: enumeration stopped after %d models: %w", count, ErrInterrupted)
				}
				return count, Unknown, fmt.Errorf("sat: enumeration stopped after %d models: %w", count, ErrBudget)
			}
			return count, st, nil
		}
		clear(model)
		blocking = blocking[:0]
		for _, v := range projection {
			val := s.Value(v)
			model[v] = val
			if val {
				blocking = append(blocking, -v)
			} else {
				blocking = append(blocking, v)
			}
		}
		count++
		models.Inc()
		if !fn(model) {
			return count, Sat, nil
		}
		if limit > 0 && count >= limit {
			return count, Sat, nil
		}
		// An empty projection cannot be blocked: treat it as exhausted.
		// Under a guard an empty or level-0 falsified projection
		// degenerates to the unit ¬sel, which ends the enumeration on the
		// next solve.
		var err error
		if sel == 0 {
			err = s.AddClause(blocking...)
		} else {
			err = s.AddGuardedClause(sel, blocking...)
		}
		if err != nil {
			return count, Unsat, nil
		}
	}
}

// CountModels counts models projected onto the given variables, up to
// max (<= 0 for unbounded). It returns the count and whether the space
// was exhausted (true) or the cap was hit (false); an exhausted
// conflict budget or interrupt surfaces as ErrBudget/ErrInterrupted.
func (s *Solver) CountModels(projection []int, max int) (int, bool, error) {
	n, st, err := s.EnumerateModels(projection, max, func(map[int]bool) bool { return true })
	return n, st == Unsat, err
}
