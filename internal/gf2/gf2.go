// Package gf2 provides linear algebra over F2, the two-element field.
//
// The timeprints method reduces signal reconstruction to solving the
// linear system A·x = TP over F2, where the columns of A are the encoded
// timestamps of a trace-cycle. This package supplies the matrix
// machinery: Gaussian elimination, rank, solvability, a particular
// solution, a nullspace basis, and exhaustive solution enumeration used
// as the brute-force baseline against which the SAT-based reconstructor
// is validated.
package gf2

import (
	"fmt"

	"repro/internal/bitvec"
)

// Matrix is a dense matrix over F2 with rows stored as bit vectors.
// Row vectors all have width Cols.
//
// Set is the only method that modifies a matrix: Eliminate, Solve and
// Rank row-reduce a private copy, and MulVec only reads. So a matrix
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

// Row returns a copy of row i.
func (m *Matrix) Row(i int) bitvec.Vector { return m.rows[i].Clone() }

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

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{rows: bitvec.CloneAll(m.rows), cols: m.cols}
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

// System is the outcome of solving A·x = y over F2: a particular
// solution plus a basis of the nullspace of A. Every solution is
// Particular XOR a subset-sum of Nullspace.
type System struct {
	// Particular is one solution of A·x = y (width = number of columns).
	Particular bitvec.Vector
	// Nullspace is a basis of {x : A·x = 0}.
	Nullspace []bitvec.Vector
	// Rank is the rank of A.
	Rank int
}

// Solve solves A·x = y over F2 on a copy of m. It returns the solution
// structure and ok=false when the system is inconsistent.
func (m *Matrix) Solve(y bitvec.Vector) (System, bool) {
	if y.Width() != len(m.rows) {
		panic(fmt.Sprintf("gf2: Solve rhs width %d, want %d", y.Width(), len(m.rows)))
	}
	rows := bitvec.CloneAll(m.rows)
	rhs := y.Clone()
	rank, pivots := rowReduce(rows, rhs)

	// Inconsistent if a zero row has rhs 1.
	for i := rank; i < len(rows); i++ {
		if rhs.Get(i) {
			return System{}, false
		}
	}

	isPivot := make([]bool, m.cols)
	pivotRow := make([]int, m.cols)
	for r, c := range pivots {
		isPivot[c] = true
		pivotRow[c] = r
	}

	// Particular solution: free variables 0, pivot variables from rhs.
	part := bitvec.New(m.cols)
	for r, c := range pivots {
		if rhs.Get(r) {
			part.Set(c, true)
		}
	}

	// Nullspace basis: one vector per free column f, with x_f = 1 and
	// pivot variables set to cancel column f.
	var basis []bitvec.Vector
	for f := 0; f < m.cols; f++ {
		if isPivot[f] {
			continue
		}
		v := bitvec.New(m.cols)
		v.Set(f, true)
		for _, c := range pivots {
			if rows[pivotRow[c]].Get(f) {
				v.Set(c, true)
			}
		}
		basis = append(basis, v)
	}
	return System{Particular: part, Nullspace: basis, Rank: rank}, true
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
	// Rank is the rank of A.
	Rank int
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
	e := Echelon{Rank: rank, Pivots: pivots, Consistent: true}
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

// Nullity returns the dimension of the solution space.
func (s System) Nullity() int { return len(s.Nullspace) }

// SolutionCount returns the total number of solutions, 2^nullity, or -1
// if that number does not fit an int64.
func (s System) SolutionCount() int64 {
	if len(s.Nullspace) >= 63 {
		return -1
	}
	return 1 << uint(len(s.Nullspace))
}

// EnumerateSolutions calls fn for every solution of the system, in Gray-
// code order starting from the particular solution. Enumeration stops
// early when fn returns false. It panics when the nullity exceeds
// maxNullity (guarding against accidental 2^large loops); pass
// maxNullity <= 0 for the default of 30.
func (s System) EnumerateSolutions(maxNullity int, fn func(bitvec.Vector) bool) {
	if maxNullity <= 0 {
		maxNullity = 30
	}
	n := len(s.Nullspace)
	if n > maxNullity {
		panic(fmt.Sprintf("gf2: nullity %d exceeds limit %d", n, maxNullity))
	}
	cur := s.Particular.Clone()
	if !fn(cur.Clone()) {
		return
	}
	// Gray-code walk: flip one basis vector per step, visiting all 2^n
	// subset sums.
	total := uint64(1) << uint(n)
	for i := uint64(1); i < total; i++ {
		// Bit that changes between Gray codes of i-1 and i.
		g := trailingZeros(i)
		cur.XorInPlace(s.Nullspace[g])
		if !fn(cur.Clone()) {
			return
		}
	}
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
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
