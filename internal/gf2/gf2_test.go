package gf2

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

func randVec(r *rand.Rand, w int) bitvec.Vector {
	v := bitvec.New(w)
	for i := 0; i < w; i++ {
		if r.Intn(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestFromColumnsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cols := make([]bitvec.Vector, 20)
	for i := range cols {
		cols[i] = randVec(r, 13)
	}
	m := FromColumns(cols)
	if m.Rows() != 13 || m.Cols() != 20 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	for j, c := range cols {
		if !m.Column(j).Equal(c) {
			t.Errorf("column %d mismatch", j)
		}
	}
}

func TestMulVecSelectsColumns(t *testing.T) {
	// A·e_j must equal column j; A·(e_i ^ e_j) = col_i ^ col_j.
	r := rand.New(rand.NewSource(2))
	cols := make([]bitvec.Vector, 10)
	for i := range cols {
		cols[i] = randVec(r, 8)
	}
	m := FromColumns(cols)
	for j := range cols {
		x := bitvec.FromOnes(10, j)
		if !m.MulVec(x).Equal(cols[j]) {
			t.Errorf("A·e_%d != col %d", j, j)
		}
	}
	x := bitvec.FromOnes(10, 2, 7)
	if !m.MulVec(x).Equal(cols[2].Xor(cols[7])) {
		t.Error("A·(e2^e7) != col2^col7")
	}
}

// TestQueriesLeaveReceiverUnchanged pins the read-only contract that
// lets an encoding share one parity matrix across requests and
// goroutines: Eliminate, Solve, Rank and MulVec never modify the
// receiver. Rows wider than one word exercise the word-level kernel.
func TestQueriesLeaveReceiverUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for _, dims := range [][2]int{{13, 20}, {70, 90}, {6, 130}} {
		rows, cols := dims[0], dims[1]
		vecs := make([]bitvec.Vector, cols)
		for i := range vecs {
			vecs[i] = randVec(r, rows)
		}
		m := FromColumns(vecs)
		before := m.String()
		y := m.MulVec(randVec(r, cols))
		if !m.Eliminate(y).Consistent {
			t.Fatalf("%dx%d: A·x reported inconsistent", rows, cols)
		}
		m.Eliminate(randVec(r, rows))
		sys, ok := m.Solve(y)
		if !ok || !m.MulVec(sys.Particular).Equal(y) {
			t.Fatalf("%dx%d: Solve missed a solution of A·x = y", rows, cols)
		}
		if got := m.Rank(); got != sys.Rank {
			t.Fatalf("%dx%d: Rank %d, Solve rank %d", rows, cols, got, sys.Rank)
		}
		if after := m.String(); after != before {
			t.Fatalf("%dx%d: receiver modified:\n%s\nwant\n%s", rows, cols, after, before)
		}
	}
}

func TestRankBasics(t *testing.T) {
	// Identity has full rank.
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, true)
	}
	if got := id.Rank(); got != 5 {
		t.Errorf("identity rank %d", got)
	}
	// Zero matrix has rank 0.
	if got := NewMatrix(4, 6).Rank(); got != 0 {
		t.Errorf("zero rank %d", got)
	}
	// Duplicated row halves rank.
	m := FromRows([]bitvec.Vector{
		bitvec.FromOnes(4, 0, 1),
		bitvec.FromOnes(4, 0, 1),
		bitvec.FromOnes(4, 2),
	})
	if got := m.Rank(); got != 2 {
		t.Errorf("rank %d want 2", got)
	}
}

func TestIsLinearlyIndependent(t *testing.T) {
	a := bitvec.FromOnes(4, 0)
	b := bitvec.FromOnes(4, 1)
	c := bitvec.FromOnes(4, 0, 1) // a ^ b
	if !IsLinearlyIndependent([]bitvec.Vector{a, b}) {
		t.Error("a,b should be independent")
	}
	if IsLinearlyIndependent([]bitvec.Vector{a, b, c}) {
		t.Error("a,b,a^b should be dependent")
	}
	if !IsLinearlyIndependent(nil) {
		t.Error("empty set is independent")
	}
	if IsLinearlyIndependent([]bitvec.Vector{bitvec.New(4)}) {
		t.Error("zero vector alone is dependent")
	}
}

func TestSolveConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		b := 4 + r.Intn(10)
		n := 4 + r.Intn(12)
		cols := make([]bitvec.Vector, n)
		for i := range cols {
			cols[i] = randVec(r, b)
		}
		m := FromColumns(cols)
		// Construct y from a known solution so the system is consistent.
		x0 := randVec(r, n)
		y := m.MulVec(x0)
		sys, ok := m.Solve(y)
		if !ok {
			t.Fatal("consistent system reported unsolvable")
		}
		if !m.MulVec(sys.Particular).Equal(y) {
			t.Fatal("particular solution does not satisfy system")
		}
		for _, v := range sys.Nullspace {
			if !m.MulVec(v).IsZero() {
				t.Fatal("nullspace vector not in kernel")
			}
		}
		if sys.Rank+sys.Nullity() != n {
			t.Fatalf("rank-nullity violated: %d + %d != %d", sys.Rank, sys.Nullity(), n)
		}
		if !IsLinearlyIndependent(sys.Nullspace) {
			t.Fatal("nullspace basis not independent")
		}
	}
}

func TestSolveInconsistent(t *testing.T) {
	// Rows: e0, e0 — then y = (1,0) is inconsistent (x0=1 and x0=0).
	m := FromRows([]bitvec.Vector{bitvec.FromOnes(3, 0), bitvec.FromOnes(3, 0)})
	y := bitvec.FromOnes(2, 0)
	if _, ok := m.Solve(y); ok {
		t.Error("inconsistent system reported solvable")
	}
	// Same matrix with y = (1,1) is consistent.
	if _, ok := m.Solve(bitvec.FromOnes(2, 0, 1)); !ok {
		t.Error("consistent system reported unsolvable")
	}
}

func TestEnumerateSolutionsCompleteAndDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cols := make([]bitvec.Vector, 10)
	for i := range cols {
		cols[i] = randVec(r, 6)
	}
	m := FromColumns(cols)
	x0 := randVec(r, 10)
	y := m.MulVec(x0)
	sys, ok := m.Solve(y)
	if !ok {
		t.Fatal("unsolvable")
	}
	seen := map[string]bool{}
	sys.EnumerateSolutions(0, func(x bitvec.Vector) bool {
		if seen[x.Key()] {
			t.Fatal("duplicate solution")
		}
		seen[x.Key()] = true
		if !m.MulVec(x).Equal(y) {
			t.Fatal("enumerated non-solution")
		}
		return true
	})
	if int64(len(seen)) != sys.SolutionCount() {
		t.Fatalf("enumerated %d, expected %d", len(seen), sys.SolutionCount())
	}
	if !seen[x0.Key()] {
		t.Error("original solution not enumerated")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	m := NewMatrix(1, 5) // zero matrix: all 2^5 vectors solve Ax=0
	sys, _ := m.Solve(bitvec.New(1))
	n := 0
	sys.EnumerateSolutions(0, func(bitvec.Vector) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop after %d", n)
	}
}

func TestEnumerateNullityGuard(t *testing.T) {
	m := NewMatrix(1, 40)
	sys, _ := m.Solve(bitvec.New(1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nullity over limit")
		}
	}()
	sys.EnumerateSolutions(0, func(bitvec.Vector) bool { return true })
}

func TestSolutionCountOverflow(t *testing.T) {
	m := NewMatrix(1, 70)
	sys, _ := m.Solve(bitvec.New(1))
	if sys.SolutionCount() != -1 {
		t.Errorf("expected overflow sentinel, got %d", sys.SolutionCount())
	}
}

func TestRankOfAgainstBruteForce(t *testing.T) {
	// For small dimensions, rank r means exactly 2^r distinct subset sums.
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(8)
		vecs := make([]bitvec.Vector, n)
		for i := range vecs {
			vecs[i] = randVec(r, 6)
		}
		rank := RankOf(vecs)
		sums := map[string]bool{}
		for mask := 0; mask < 1<<n; mask++ {
			s := bitvec.New(6)
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					s.XorInPlace(vecs[i])
				}
			}
			sums[s.Key()] = true
		}
		if len(sums) != 1<<rank {
			t.Fatalf("rank %d but %d distinct subset sums", rank, len(sums))
		}
	}
}
