// Package gf2 provides linear algebra over F2, the two-element field.
//
// The timeprints method reduces signal reconstruction to solving the
// linear system A·x = TP over F2, where the columns of A are the encoded
// timestamps of a trace-cycle. This package supplies the matrix
// machinery: one Gaussian elimination of [A | TP] (Eliminate), rank,
// and on the echelon form a weight-bounded walk of the solution coset
// (Echelon.Walk), the brute-force baseline against which the SAT-based
// reconstructor is validated.
package gf2

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
)

// Matrix is a dense matrix over F2 with rows stored as bit vectors.
// Row vectors all have width Cols.
//
// Set is the only method that modifies a matrix: Eliminate and Rank
// row-reduce a private copy, and MulVec only reads. So a matrix
// that is no longer Set may be shared read-only across requests and
// goroutines, as encoding.Encoding.Matrix shares its parity matrix.
type Matrix struct {
	rows []bitvec.Vector
	cols int
}

// NewMatrix returns a zero matrix with the given dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gf2: negative dimension %dx%d", rows, cols))
	}
	m := &Matrix{rows: make([]bitvec.Vector, rows), cols: cols}
	for i := range m.rows {
		m.rows[i] = bitvec.New(cols)
	}
	return m
}

// FromColumns builds the b×m matrix whose i-th column is cols[i]. All
// columns must share the same width b. This is the paper's
// A = [TS(1) | … | TS(m)] construction.
func FromColumns(cols []bitvec.Vector) *Matrix {
	if len(cols) == 0 {
		return NewMatrix(0, 0)
	}
	b := cols[0].Width()
	m := NewMatrix(b, len(cols))
	for i, c := range cols {
		if c.Width() != b {
			panic(fmt.Sprintf("gf2: column %d has width %d, want %d", i, c.Width(), b))
		}
		for _, j := range c.Ones() {
			m.rows[j].Set(i, true)
		}
	}
	return m
}

// FromRows builds a matrix from copies of the given row vectors, which
// must all share one width.
func FromRows(rows []bitvec.Vector) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	w := rows[0].Width()
	m := &Matrix{rows: make([]bitvec.Vector, len(rows)), cols: w}
	for i, r := range rows {
		if r.Width() != w {
			panic(fmt.Sprintf("gf2: row %d has width %d, want %d", i, r.Width(), w))
		}
		m.rows[i] = r.Clone()
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return len(m.rows) }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Get reports entry (i, j).
func (m *Matrix) Get(i, j int) bool { return m.rows[i].Get(j) }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v bool) { m.rows[i].Set(j, v) }

// Column returns column j as a fresh vector of width Rows().
func (m *Matrix) Column(j int) bitvec.Vector {
	c := bitvec.New(len(m.rows))
	for i := range m.rows {
		if m.rows[i].Get(j) {
			c.Set(i, true)
		}
	}
	return c
}

// MulVec returns A·x over F2; x must have width Cols(). The result has
// width Rows(). Entry i is the parity of the AND of row i with x.
func (m *Matrix) MulVec(x bitvec.Vector) bitvec.Vector {
	if x.Width() != m.cols {
		panic(fmt.Sprintf("gf2: MulVec width %d, want %d", x.Width(), m.cols))
	}
	out := bitvec.New(len(m.rows))
	for i, r := range m.rows {
		if r.And(x).PopCount()%2 == 1 {
			out.Set(i, true)
		}
	}
	return out
}

// Rank computes the rank of m by Gaussian elimination on a copy.
func (m *Matrix) Rank() int {
	rank, _ := rowReduce(bitvec.CloneAll(m.rows), bitvec.Vector{})
	return rank
}

// rowReduce transforms rows in place to reduced row-echelon form,
// applying the same row operations to rhs when rhs is non-empty (one
// bit per row). It returns the rank and the pivot column of each of the
// first rank rows. It works a word at a time: pivots come from
// FirstOne, and eliminations test the pivot's word of each row.
func rowReduce(rows []bitvec.Vector, rhs bitvec.Vector) (rank int, pivots []int) {
	aug := rhs.Width() > 0
	pivots = make([]int, 0, len(rows))
	for r := range rows {
		// Rows r and below are zero up to the previous pivot column, so
		// the next pivot column is their lowest leading one, and the
		// first row holding it is the one a column scan would pick.
		p, c := -1, -1
		for i := r; i < len(rows); i++ {
			if f := rows[i].FirstOne(); f >= 0 && (p < 0 || f < c) {
				p, c = i, f
			}
		}
		if p < 0 {
			break
		}
		rows[r], rows[p] = rows[p], rows[r]
		if aug && p != r {
			pr, rr := rhs.Get(p), rhs.Get(r)
			rhs.Set(p, rr)
			rhs.Set(r, pr)
		}
		// Eliminate column c from every other row.
		w, bit := c/64, uint64(1)<<(c%64)
		flip := aug && rhs.Get(r)
		for i := range rows {
			if i != r && rows[i].Word(w)&bit != 0 {
				rows[i].XorInPlace(rows[r])
				if flip {
					rhs.Flip(i)
				}
			}
		}
		pivots = append(pivots, c)
	}
	return len(pivots), pivots
}

// RankOf returns the rank of the set of vectors, treated as rows.
func RankOf(vecs []bitvec.Vector) int {
	if len(vecs) == 0 {
		return 0
	}
	return FromRows(vecs).Rank()
}

// IsLinearlyIndependent reports whether the given vectors are linearly
// independent over F2.
func IsLinearlyIndependent(vecs []bitvec.Vector) bool {
	return RankOf(vecs) == len(vecs)
}

// Echelon is the reduced row-echelon form of an augmented system
// [A | y]: the nonzero rows after Gaussian elimination together with
// their transformed right-hand sides and pivot columns. It is the
// presolve view of a linear system — redundant rows are gone, unit
// rows expose forced variables, and inconsistency is decided outright.
type Echelon struct {
	// Rows are the Rank nonzero reduced rows (width = Cols of A).
	Rows []bitvec.Vector
	// RHS[i] is the right-hand side of Rows[i].
	RHS []bool
	// Pivots[i] is the pivot column of Rows[i] (strictly increasing).
	Pivots []int
	// Rank is the rank of A; Cols, its column count, is the width of
	// every solution, and Cols - Rank its nullity.
	Rank, Cols int
	// Consistent is false when elimination produced a zero row with
	// right-hand side 1 — the system has no solution.
	Consistent bool
}

// Eliminate row-reduces the augmented system [A | y] on a copy of m,
// whose rows share one backing array, and returns its echelon form; m
// is left unchanged. y must have one bit per row of m.
func (m *Matrix) Eliminate(y bitvec.Vector) Echelon {
	if y.Width() != len(m.rows) {
		panic(fmt.Sprintf("gf2: Eliminate rhs width %d, want %d", y.Width(), len(m.rows)))
	}
	rows := bitvec.CloneAll(m.rows)
	rhs := y.Clone()
	rank, pivots := rowReduce(rows, rhs)
	e := Echelon{Rank: rank, Cols: m.cols, Pivots: pivots, Consistent: true}
	for i := rank; i < len(rows); i++ {
		if rhs.Get(i) {
			e.Consistent = false
			return e
		}
	}
	e.Rows = rows[:rank]
	e.RHS = make([]bool, rank)
	for i := 0; i < rank; i++ {
		e.RHS[i] = rhs.Get(i)
	}
	return e
}

// Walk calls fn on every solution of the system whose free (non-pivot)
// columns hold at most k >= 0 ones, WalkVisits(Cols-Rank, k) points,
// none twice, and stops early when fn returns false. An inconsistent
// system has no solutions and visits none.
//
// Every solution is the particular solution (free columns 0) plus a
// sum of nullspace basis vectors, and basis vector f is the only one
// that sets free column f. So a solution of weight k sums at most k of
// them, and the walk meets every weight-k solution: Lee–Brickell's
// information-set step run exhaustively. It moves one reused vector by
// one XOR in and one XOR out per point; fn must copy what it keeps.
func (e Echelon) Walk(k int, fn func(x bitvec.Vector) bool) {
	if !e.Consistent {
		return
	}
	free := make([]int, 0, e.Cols-e.Rank)
	for c, r := 0, 0; c < e.Cols; c++ {
		if r < e.Rank && e.Pivots[r] == c {
			r++
		} else {
			free = append(free, c)
		}
	}
	// vecs[0] is the walk's point, starting at the particular solution;
	// vecs[1+i] is the basis vector of free column free[i].
	vecs := bitvec.NewAll(1+len(free), e.Cols)
	x, basis := vecs[0], vecs[1:]
	for r, c := range e.Pivots {
		if e.RHS[r] {
			x.Set(c, true)
		}
	}
	for i, f := range free {
		basis[i].Set(f, true)
		for r, row := range e.Rows {
			if row.Get(f) {
				basis[i].Set(e.Pivots[r], true)
			}
		}
	}
	if !fn(x) {
		return
	}
	// Depth first over increasing index sets: add the next basis vector
	// while fewer than k are in, else take the last one out and move
	// past it.
	in := make([]int, 0, min(k, len(free)))
	next := 0
	for {
		if len(in) < k && next < len(free) {
			x.XorInPlace(basis[next])
			in = append(in, next)
			next++
			if !fn(x) {
				return
			}
			continue
		}
		if len(in) == 0 {
			return
		}
		last := in[len(in)-1]
		in = in[:len(in)-1]
		x.XorInPlace(basis[last])
		next = last + 1
	}
}

// WalkVisits returns Σ_{j≤k} C(n, j), the number of points Walk visits
// on a consistent system of nullity n, saturating at math.MaxUint64.
func WalkVisits(n, k int) uint64 {
	total, c := uint64(1), uint64(1)
	for j := 1; j <= min(k, n); j++ {
		// C(n, j) = C(n, j-1)·(n-j+1)/j; the quotient fits 64 bits
		// exactly when the product's high word is below j.
		hi, lo := bits.Mul64(c, uint64(n-j+1))
		if hi >= uint64(j) {
			return math.MaxUint64
		}
		c, _ = bits.Div64(hi, lo, uint64(j))
		if total += c; total < c {
			return math.MaxUint64
		}
	}
	return total
}

// String renders the matrix one row per line, MSB-first per row vector.
func (m *Matrix) String() string {
	s := ""
	for i, r := range m.rows {
		if i > 0 {
			s += "\n"
		}
		s += r.LSBString()
	}
	return s
}
