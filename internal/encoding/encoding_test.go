package encoding

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/gf2"
)

func TestOneHot(t *testing.T) {
	e := OneHot(8)
	if e.M() != 8 || e.B() != 8 {
		t.Fatalf("dims m=%d b=%d", e.M(), e.B())
	}
	if e.Matrix().Rank() != 8 {
		t.Error("one-hot matrix not full rank")
	}
	if err := VerifyDepth(e, 4); err != nil {
		t.Error(err)
	}
}

// TestMatrixShared pins that every constructor builds the parity matrix
// once: Matrix returns the same matrix on every call, with TS(i) as
// column i.
func TestMatrixShared(t *testing.T) {
	inc, err := Incremental(32, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RandomConstrained(32, 14, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := FromTimestamps(inc.Timestamps(), "explicit")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Encoding{inc, rnd, explicit, OneHot(96), Binary(20)} {
		a := e.Matrix()
		if e.Matrix() != a {
			t.Errorf("%s: Matrix builds a new matrix per call", e.Scheme())
		}
		if a.Rows() != e.B() || a.Cols() != e.M() {
			t.Fatalf("%s: matrix %dx%d, want %dx%d", e.Scheme(), a.Rows(), a.Cols(), e.B(), e.M())
		}
		for i := 0; i < e.M(); i++ {
			if !a.Column(i).Equal(e.Timestamp(i)) {
				t.Fatalf("%s: column %d is not TS(%d)", e.Scheme(), i, i)
			}
		}
	}
}

func TestBinaryEncoding(t *testing.T) {
	e := Binary(16)
	if e.B() != 5 { // values 1..16 need 5 bits
		t.Fatalf("b=%d", e.B())
	}
	// Injective and nonzero.
	if _, err := FromTimestamps(e.Timestamps(), "check"); err != nil {
		t.Error(err)
	}
	// Binary is NOT LI-3: 1 ^ 2 ^ 3 = 0.
	if err := VerifyDepth(e, 3); err == nil {
		t.Error("binary encoding should fail depth-3 verification")
	}
	if err := VerifyDepth(e, 2); err != nil {
		t.Error(err)
	}
}

func TestIncrementalSmall(t *testing.T) {
	for _, tc := range []struct{ m, b, d int }{
		{16, 8, 4},
		{16, 8, 2},
		{32, 11, 4},
		{64, 13, 4}, // the paper's m=64 row uses b=13
	} {
		e, err := Incremental(tc.m, tc.b, tc.d)
		if err != nil {
			t.Errorf("Incremental(%d,%d,%d): %v", tc.m, tc.b, tc.d, err)
			continue
		}
		if e.M() != tc.m || e.B() != tc.b {
			t.Errorf("dims %d/%d", e.M(), e.B())
		}
		if err := VerifyDepth(e, tc.d); err != nil {
			t.Errorf("Incremental(%d,%d,%d) violates LI-%d: %v", tc.m, tc.b, tc.d, tc.d, err)
		}
	}
}

func TestIncrementalTooSmallB(t *testing.T) {
	// 64 LI-4 timestamps cannot fit in 6 bits (Sidon bound ~ 2^(b/2)).
	if _, err := Incremental(64, 6, 4); err == nil {
		t.Error("expected failure for b too small")
	}
}

func TestIncrementalDeterministic(t *testing.T) {
	a, err := Incremental(50, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Incremental(50, 12, 4)
	for i := 0; i < 50; i++ {
		if !a.Timestamp(i).Equal(b.Timestamp(i)) {
			t.Fatal("incremental generation not deterministic")
		}
	}
	// First accepted values for LI-4 are the greedy lexicode prefix:
	// 1, 2, 4, 7 is wrong for XOR-Sidon; check the actual invariant
	// instead: first element is 1 and the sequence is strictly
	// increasing.
	prev := uint64(0)
	for i := 0; i < 50; i++ {
		v := a.Timestamp(i).Uint64()
		if v <= prev {
			t.Fatal("sequence not strictly increasing")
		}
		prev = v
	}
	if a.Timestamp(0).Uint64() != 1 {
		t.Errorf("first timestamp %d, want 1", a.Timestamp(0).Uint64())
	}
}

func TestRandomConstrained(t *testing.T) {
	e, err := RandomConstrained(64, 20, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDepth(e, 4); err != nil {
		t.Error(err)
	}
	// Reproducible for the same seed.
	e2, _ := RandomConstrained(64, 20, 4, 1, 0)
	for i := 0; i < 64; i++ {
		if !e.Timestamp(i).Equal(e2.Timestamp(i)) {
			t.Fatal("random-constrained not reproducible for equal seeds")
		}
	}
	// Different for different seeds (overwhelmingly likely).
	e3, _ := RandomConstrained(64, 20, 4, 2, 0)
	same := true
	for i := 0; i < 64; i++ {
		if !e.Timestamp(i).Equal(e3.Timestamp(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical encodings")
	}
}

func TestRandomConstrainedGivesUp(t *testing.T) {
	// b=7 cannot hold 64 LI-4 timestamps; must give up, not loop.
	if _, err := RandomConstrained(64, 7, 4, 1, 500); err == nil {
		t.Error("expected give-up error")
	}
}

func TestMinimalB(t *testing.T) {
	e, err := MinimalB(16, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDepth(e, 4); err != nil {
		t.Error(err)
	}
	// One bit fewer must fail, or MinimalB did not find the minimum.
	if _, err := Incremental(16, e.B()-1, 4); err == nil {
		t.Errorf("b=%d works, so %d is not minimal", e.B()-1, e.B())
	}
}

func TestFromTimestampsValidation(t *testing.T) {
	good := []bitvec.Vector{bitvec.FromOnes(4, 0), bitvec.FromOnes(4, 1)}
	if _, err := FromTimestamps(good, "x"); err != nil {
		t.Error(err)
	}
	dup := []bitvec.Vector{bitvec.FromOnes(4, 0), bitvec.FromOnes(4, 0)}
	if _, err := FromTimestamps(dup, "x"); err == nil {
		t.Error("accepted duplicate timestamps")
	}
	zero := []bitvec.Vector{bitvec.New(4)}
	if _, err := FromTimestamps(zero, "x"); err == nil {
		t.Error("accepted zero timestamp")
	}
	mixed := []bitvec.Vector{bitvec.FromOnes(4, 0), bitvec.FromOnes(5, 0)}
	if _, err := FromTimestamps(mixed, "x"); err == nil {
		t.Error("accepted mixed widths")
	}
	if _, err := FromTimestamps(nil, "x"); err == nil {
		t.Error("accepted empty set")
	}
}

func TestParamValidation(t *testing.T) {
	if _, err := Incremental(0, 8, 4); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Incremental(8, 0, 4); err == nil {
		t.Error("b=0 accepted")
	}
	if _, err := Incremental(8, 70, 4); err == nil {
		t.Error("b>MaxWidth accepted")
	}
	if _, err := Incremental(8, 8, 5); err == nil {
		t.Error("d=5 accepted")
	}
	if _, err := RandomConstrained(8, 8, 0, 1, 0); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestBitmapAndHashModesAgree(t *testing.T) {
	// The incremental sequence must be identical whichever liState
	// representation is active. Build the same encoding through the
	// hash fallback by constructing the state directly.
	m, b, d := 40, 12, 4
	want, err := Incremental(m, b, d) // bitmap mode (b <= 27)
	if err != nil {
		t.Fatal(err)
	}
	st := &liState{d: d, sSet: map[uint64]struct{}{}, pSet: map[uint64]struct{}{}}
	var got []uint64
	for c := uint64(1); c < 1<<uint(b) && len(got) < m; c++ {
		if st.admissible(c) {
			st.accept(c)
			got = append(got, c)
		}
	}
	for i := range got {
		if got[i] != want.Timestamp(i).Uint64() {
			t.Fatalf("representations diverge at %d: %d vs %d", i, got[i], want.Timestamp(i).Uint64())
		}
	}
}

func TestDepthMatchesRankCheck(t *testing.T) {
	// Cross-validate VerifyDepth against gf2 rank computation on all
	// 4-subsets for a small encoding.
	e, err := Incremental(20, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts := e.Timestamps()
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			for c := b + 1; c < 20; c++ {
				for d := c + 1; d < 20; d++ {
					sub := []bitvec.Vector{ts[a], ts[b], ts[c], ts[d]}
					if !gf2.IsLinearlyIndependent(sub) {
						t.Fatalf("4-subset (%d,%d,%d,%d) dependent", a, b, c, d)
					}
				}
			}
		}
	}
}

func TestPaperBValues(t *testing.T) {
	// The paper's Table 1 uses b = 13, 16, 22, 24 for m = 64, 128, 512,
	// 1024 with LI-4 timestamps. Our greedy incremental generator must
	// succeed at (or very near) those widths. Allow +2 bits of slack:
	// the paper's exact heuristic is unspecified.
	if testing.Short() {
		t.Skip("slow encoding generation")
	}
	for _, tc := range []struct{ m, paperB int }{
		{64, 13}, {128, 16}, {512, 22}, {1024, 24},
	} {
		e, err := MinimalB(tc.m, 4, tc.paperB+2)
		if err != nil {
			t.Errorf("m=%d: no b <= %d+2 found: %v", tc.m, tc.paperB, err)
			continue
		}
		t.Logf("m=%d: minimal b=%d (paper %d)", tc.m, e.B(), tc.paperB)
	}
}
