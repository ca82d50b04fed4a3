package sat

import (
	"fmt"
	"math"
	"slices"
)

// cref names a clause by its offset in the clause arena Solver.ca: the
// index of the clause's size word. The literals follow the size word,
// and the metadata sits in the clauseHdr words just before it:
//
//	ca[c-4], ca[c-3]  activity, the float64's bits low word first
//	ca[c-2]           LBD, or the new cref once the clause is relocated
//	ca[c-1]           flags (flagLearned, flagFreed, ...)
//	ca[c]             size n
//	ca[c+1 : c+1+n]   literals; lits[0] and lits[1] are watched
//
// Every clause is one contiguous run of words and no clause holds a
// pointer, so a watch visit touches one cache line for the size and the
// watched literals, and the garbage collector never scans the arena.
type cref uint32

// Header words, as distances back from the size word.
const (
	hdrAct    = 4
	hdrLBD    = 2
	hdrFlags  = 1
	clauseHdr = 4
)

// Clause flags, in the header word at c-hdrFlags.
const (
	flagLearned lit = 1 << iota
	// flagFreed marks a clause reduceDB or DropGuard discarded: it is
	// detached and its words count in Solver.wasted until relocAll.
	flagFreed
	// flagLocked marks, during one reduceDB, a learned clause that is
	// the reason of an assigned variable and so must be kept.
	flagLocked
	// flagRelocated marks an old copy relocAll already moved; its LBD
	// word holds the new cref.
	flagRelocated
)

// clauseWords is the arena footprint of a clause of n literals.
func clauseWords(n int) int { return clauseHdr + 1 + n }

// arenaFits reports whether a clause of n literals can be appended to
// an arena of used words: every cref must fit in a uint32.
func arenaFits(used, n int) bool {
	return uint64(used)+uint64(clauseWords(n)) <= math.MaxUint32
}

// errArenaFull reports a formula whose clauses overflow the arena.
var errArenaFull = fmt.Errorf("sat: clause arena exceeds %d words", uint64(math.MaxUint32))

// allocClause appends a clause to the arena with zero activity and
// returns its cref. Callers adding input clauses check arenaFits first
// and report errArenaFull; a learned clause that overflows the arena
// panics, as running out of memory would.
func (s *Solver) allocClause(lits []lit, learned bool, lbd int32) cref {
	if !arenaFits(len(s.ca), len(lits)) {
		panic(errArenaFull)
	}
	var flags lit
	if learned {
		flags = flagLearned
	}
	if n := clauseWords(len(lits)); cap(s.ca)-len(s.ca) < n {
		// Double, so regrowth copies each word O(1) times.
		s.ca = slices.Grow(s.ca, max(len(s.ca), n))
	}
	c := cref(len(s.ca) + clauseHdr)
	s.ca = append(s.ca, 0, 0, lit(lbd), flags, lit(len(lits)))
	s.ca = append(s.ca, lits...)
	return c
}

// clauseLits returns clause c's literals, aliasing the arena.
func (s *Solver) clauseLits(c cref) []lit {
	return s.ca[c+1 : c+1+cref(s.ca[c])]
}

func (s *Solver) hasFlag(c cref, f lit) bool { return s.ca[c-hdrFlags]&f != 0 }
func (s *Solver) clauseLBD(c cref) int32     { return int32(s.ca[c-hdrLBD]) }

func (s *Solver) clauseAct(c cref) float64 {
	return math.Float64frombits(uint64(uint32(s.ca[c-hdrAct])) | uint64(uint32(s.ca[c-hdrAct+1]))<<32)
}

func (s *Solver) setClauseAct(c cref, a float64) {
	b := math.Float64bits(a)
	s.ca[c-hdrAct] = lit(uint32(b))
	s.ca[c-hdrAct+1] = lit(uint32(b >> 32))
}

func (s *Solver) attachClause(c cref) {
	lits := s.clauseLits(c)
	s.watches[lits[0].not()] = append(s.watches[lits[0].not()], watcher{c, lits[1]})
	s.watches[lits[1].not()] = append(s.watches[lits[1].not()], watcher{c, lits[0]})
}

// detachClause unlinks c from both watch lists. A watcher holds no
// pointer, so the slot it vacates needs no clearing.
func (s *Solver) detachClause(c cref) {
	lits := s.clauseLits(c)
	for _, w := range [2]lit{lits[0].not(), lits[1].not()} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].cref == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// freeClause detaches c and marks its words wasted. The words stay in
// the arena until maybeRelocate compacts it.
func (s *Solver) freeClause(c cref) {
	s.detachClause(c)
	s.ca[c-hdrFlags] |= flagFreed
	s.wasted += clauseWords(int(s.ca[c]))
}

// maybeRelocate compacts the arena once freed clauses take more than a
// fifth of it. reduceDB and DropGuard, the two places that free
// clauses, call it last.
func (s *Solver) maybeRelocate() {
	if s.wasted*5 > len(s.ca) {
		s.relocAll()
	}
}

// relocAll copies every live clause into a fresh arena and rewrites
// each reference in place: the watchers first, which reach every live
// clause (each is watched twice) and so lay out the clauses watched by
// one literal next to each other; then the reasons of assigned
// variables and the clause lists, whose clauses are already moved and
// only follow the forwarding address. Lists keep their order, so the
// search does not change. The new arena is sized at the live words
// plus a sixteenth: allocClause doubles it when learned clauses fill
// it, and on warm forensic sessions this tight start allocated the
// fewest bytes of the headrooms measured (EXPERIMENTS.md).
func (s *Solver) relocAll() {
	live := len(s.ca) - s.wasted
	to := make([]lit, 0, live+live/16)
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].cref = s.reloc(ws[i].cref, &to)
		}
	}
	for v, r := range s.reasons {
		if r.kind == reasonClause && s.assigns[v] != valUnassigned {
			s.reasons[v].ref = uint32(s.reloc(cref(r.ref), &to))
		}
	}
	for i, c := range s.clauses {
		s.clauses[i] = s.reloc(c, &to)
	}
	for i, c := range s.learnts {
		s.learnts[i] = s.reloc(c, &to)
	}
	for _, cs := range s.guarded {
		for i, c := range cs {
			cs[i] = s.reloc(c, &to)
		}
	}
	s.ca = to
	s.wasted = 0
	s.relocs++
	// The last conflict may alias the old arena; drop it so the old
	// arena is not kept alive until the next conflict.
	s.confl.lits = nil
}

// reloc returns clause c's cref in the arena being built in to,
// copying the clause there on first sight and leaving the new cref
// in the old header.
func (s *Solver) reloc(c cref, to *[]lit) cref {
	if s.hasFlag(c, flagRelocated) {
		return cref(s.ca[c-hdrLBD])
	}
	nc := cref(len(*to) + clauseHdr)
	*to = append(*to, s.ca[c-clauseHdr:c+1+cref(s.ca[c])]...)
	s.ca[c-hdrFlags] |= flagRelocated
	s.ca[c-hdrLBD] = lit(nc)
	return nc
}

// xorClause is a parity constraint over variables: the XOR of the
// variables' values must equal rhs. Two positions of vars are watched;
// the rest are only inspected when a watch triggers.
type xorClause struct {
	vars []int32
	rhs  bool
	w    [2]int // indices into vars
	// idx is the row's index in Solver.xors, which an XOR reason
	// stores in place of a pointer.
	idx uint32
}

// propagateXor handles the assignment of watched variable v in x. It
// returns (conflict, impliedLit, propagate):
//
//   - if a replacement unassigned watch was found the clause is moved to
//     that variable's watch list and keep=false is returned,
//   - if exactly the other watched variable is unassigned, its forced
//     value is returned with imply=true,
//   - if everything is assigned and the parity is wrong, conflict=true.
//
// keep reports whether the clause must stay in v's watch list.
func (s *Solver) propagateXor(x *xorClause, v int32) (conflict bool, implied lit, imply bool, keep bool) {
	var wi int
	switch {
	case x.vars[x.w[0]] == v:
		wi = 0
	case x.vars[x.w[1]] == v:
		wi = 1
	default:
		// Stale watch entry (clause already moved); drop it.
		return false, 0, false, false
	}
	other := x.w[1-wi]

	// Look for an unassigned replacement watch distinct from both
	// current watches.
	for i := range x.vars {
		if i == x.w[0] || i == x.w[1] {
			continue
		}
		if s.assigns[x.vars[i]] == valUnassigned {
			x.w[wi] = i
			s.xorWatches[x.vars[i]] = append(s.xorWatches[x.vars[i]], x)
			return false, 0, false, false
		}
	}

	// No replacement: all variables except possibly vars[other] are
	// assigned. Compute the parity of the assigned ones.
	parity := false
	otherUnassigned := s.assigns[x.vars[other]] == valUnassigned
	for i, xv := range x.vars {
		if i == other && otherUnassigned {
			continue
		}
		if s.assigns[xv] == valTrue {
			parity = !parity
		}
	}
	if otherUnassigned {
		// vars[other] must make the parity equal rhs.
		want := parity != x.rhs // value needed is rhs ^ parity
		return false, mkLit(x.vars[other], !want), true, true
	}
	if parity != x.rhs {
		return true, 0, false, true
	}
	return false, 0, false, true
}

// xorReason materializes the clausal reason for an implication (or
// conflict) of x into *buf, reusing its storage, and returns it. If
// implied is a valid literal it is placed first; the remaining
// literals are the negations of the current assignments of the other
// variables, so the clause is false except for the implied literal —
// exactly the shape conflict analysis requires. Conflicts and reasons
// use separate buffers, as analysis reads a conflict and then
// materializes reasons.
func (s *Solver) xorReason(buf *[]lit, x *xorClause, impliedVar int32, haveImplied bool) []lit {
	out := (*buf)[:0]
	if haveImplied {
		// The implied literal is the one currently true on impliedVar.
		out = append(out, mkLit(impliedVar, s.assigns[impliedVar] != valTrue))
	}
	for _, v := range x.vars {
		if haveImplied && v == impliedVar {
			continue
		}
		// Negation of the current assignment: a false literal.
		out = append(out, mkLit(v, s.assigns[v] == valTrue))
	}
	*buf = out
	return out
}
