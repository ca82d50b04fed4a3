package gf2

import (
	"math"
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
// goroutines: Eliminate, Rank and MulVec never modify the receiver. Rows wider than one word exercise the word-level kernel.
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
		ech := m.Eliminate(y)
		if !ech.Consistent {
			t.Fatalf("%dx%d: A·x reported inconsistent", rows, cols)
		}
		ech.Walk(1, func(x bitvec.Vector) bool {
			if !m.MulVec(x).Equal(y) {
				t.Fatalf("%dx%d: walked a non-solution of A·x = y", rows, cols)
			}
			return true
		})
		m.Eliminate(randVec(r, rows))
		if got := m.Rank(); got != ech.Rank {
			t.Fatalf("%dx%d: Rank %d, Eliminate rank %d", rows, cols, got, ech.Rank)
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

func TestSolveInconsistent(t *testing.T) {
	// Rows: e0, e0 — then y = (1,0) is inconsistent (x0=1 and x0=0).
	m := FromRows([]bitvec.Vector{bitvec.FromOnes(3, 0), bitvec.FromOnes(3, 0)})
	if m.Eliminate(bitvec.FromOnes(2, 0)).Consistent {
		t.Error("inconsistent system reported solvable")
	}
	// Same matrix with y = (1,1) is consistent.
	if !m.Eliminate(bitvec.FromOnes(2, 0, 1)).Consistent {
		t.Error("consistent system reported unsolvable")
	}
}

// TestWalkMatchesExhaustive checks Echelon.Walk against every one of
// the 2^n vectors of small random systems, consistent and inconsistent:
// each visited point solves A·x = y and has at most k ones on the free
// columns, none is visited twice, the count is WalkVisits(nullity, k),
// and the weight-k points are exactly the weight-k solutions.
func TestWalkMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	inconsistent := 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(12)
		b := 1 + r.Intn(8)
		cols := make([]bitvec.Vector, n)
		for i := range cols {
			cols[i] = randVec(r, b)
		}
		m := FromColumns(cols)
		y := randVec(r, b)
		if trial%2 == 0 {
			y = m.MulVec(randVec(r, n)) // consistent by construction
		}
		k := r.Intn(n + 1)
		ech := m.Eliminate(y)
		if !ech.Consistent {
			inconsistent++
		}
		free := bitvec.New(n)
		for c := 0; c < n; c++ {
			free.Set(c, true)
		}
		for _, c := range ech.Pivots[:ech.Rank] {
			free.Set(c, false)
		}
		seen := map[string]bool{}
		weightK := 0
		ech.Walk(k, func(x bitvec.Vector) bool {
			if seen[x.Key()] {
				t.Fatalf("trial %d: point %s visited twice", trial, x.LSBString())
			}
			seen[x.Key()] = true
			if !m.MulVec(x).Equal(y) {
				t.Fatalf("trial %d: visited non-solution %s", trial, x.LSBString())
			}
			if f := x.And(free).PopCount(); f > k {
				t.Fatalf("trial %d: point %s has %d free ones, k=%d", trial, x.LSBString(), f, k)
			}
			if x.PopCount() == k {
				weightK++
			}
			return true
		})
		want := 0
		if ech.Consistent {
			want = int(WalkVisits(n-ech.Rank, k))
		}
		if len(seen) != want {
			t.Fatalf("trial %d: %d visits, want %d", trial, len(seen), want)
		}
		solutions := 0
		for mask := 0; mask < 1<<n; mask++ {
			x := bitvec.FromUint(uint64(mask), n)
			if x.PopCount() != k || !m.MulVec(x).Equal(y) {
				continue
			}
			solutions++
			if !seen[x.Key()] {
				t.Fatalf("trial %d: weight-%d solution %s not visited", trial, k, x.LSBString())
			}
		}
		if weightK != solutions {
			t.Fatalf("trial %d: %d weight-%d points, %d weight-%d solutions", trial, weightK, k, solutions, k)
		}
	}
	if inconsistent == 0 {
		t.Fatal("no inconsistent system drawn")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	ech := NewMatrix(1, 5).Eliminate(bitvec.New(1)) // all 2^5 vectors solve 0·x = 0
	n := 0
	ech.Walk(5, func(bitvec.Vector) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop after %d", n)
	}
}

func TestWalkVisits(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		want uint64
	}{
		{0, 5, 1},
		{16, 16, 1 << 16},
		{17, 8, 65536}, // half of 2^17, by symmetry
		{21, 5, 27896},
		{21, 6, 82160},
		{112, 5, 140598781},
		{63, 63, 1 << 63},
		{64, 62, math.MaxUint64 - 64}, // 2^64 - 1 - C(64, 63) fits
		{64, 64, math.MaxUint64},      // 2^64 saturates
		{200, 100, math.MaxUint64},
	} {
		if got := WalkVisits(tc.n, tc.k); got != tc.want {
			t.Errorf("WalkVisits(%d, %d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
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
