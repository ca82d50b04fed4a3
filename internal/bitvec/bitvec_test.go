package bitvec

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewZero(t *testing.T) {
	for _, w := range []int{0, 1, 63, 64, 65, 128, 1000} {
		v := New(w)
		if v.Width() != w {
			t.Errorf("width %d: got %d", w, v.Width())
		}
		if !v.IsZero() {
			t.Errorf("width %d: new vector not zero", w)
		}
		if v.PopCount() != 0 {
			t.Errorf("width %d: popcount %d", w, v.PopCount())
		}
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set on fresh vector", i)
		}
		v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Flip(i)
		if v.Get(i) {
			t.Fatalf("bit %d set after Flip", i)
		}
		v.Flip(i)
		if !v.Get(i) {
			t.Fatalf("bit %d clear after second Flip", i)
		}
		v.Set(i, false)
		if v.Get(i) {
			t.Fatalf("bit %d set after Set false", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, f := range []func(){
		func() { v.Get(8) },
		func() { v.Get(-1) },
		func() { v.Set(8, true) },
		func() { v.Flip(100) },
		func() { v.XorInPlace(New(9)) },
		func() { v.And(New(7)) },
		func() { New(-1) },
		func() { v.Slice(3, 2) },
		func() { v.Slice(0, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestXor(t *testing.T) {
	a := FromOnes(100, 0, 50, 99)
	b := FromOnes(100, 50, 64, 99)
	c := a.Xor(b)
	want := FromOnes(100, 0, 64)
	if !c.Equal(want) {
		t.Errorf("xor: got %v want %v", c.Ones(), want.Ones())
	}
	// Operands unchanged.
	if !a.Equal(FromOnes(100, 0, 50, 99)) || !b.Equal(FromOnes(100, 50, 64, 99)) {
		t.Error("Xor mutated an operand")
	}
	// XOR with self is zero.
	if !a.Xor(a).IsZero() {
		t.Error("a xor a != 0")
	}
}

func TestFromUintMasksHighBits(t *testing.T) {
	v := FromUint(0xFF, 4)
	if got := v.Uint64(); got != 0xF {
		t.Errorf("got %#x want 0xF", got)
	}
	w := FromUint(0xDEADBEEF, 64)
	if got := w.Uint64(); got != 0xDEADBEEF {
		t.Errorf("got %#x", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []string{"0", "1", "00000001", "10100000", "01101100",
		"1111111111111111", "000000000000000000000000000000000000000000000000000000000000000001"}
	for _, s := range cases {
		v := MustParse(s)
		if v.String() != s {
			t.Errorf("round trip %q -> %q", s, v.String())
		}
	}
	// Figure 4's TS(1) = 00010100: bits 2 and 4 set.
	v := MustParse("00010100")
	if got := v.Ones(); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("ones of 00010100: %v", got)
	}
}

func TestLSBString(t *testing.T) {
	v := FromOnes(8, 0, 3)
	if got := v.LSBString(); got != "10010000" {
		t.Errorf("LSBString: %q", got)
	}
	u, err := ParseLSB("10010000")
	if err != nil || !u.Equal(v) {
		t.Errorf("ParseLSB mismatch: %v %v", u, err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("01x"); err == nil {
		t.Error("Parse accepted bad char")
	}
	if _, err := ParseLSB("2"); err == nil {
		t.Error("ParseLSB accepted bad char")
	}
}

func TestOnesFirstLast(t *testing.T) {
	v := FromOnes(200, 5, 63, 64, 150, 199)
	want := []int{5, 63, 64, 150, 199}
	got := v.Ones()
	if len(got) != len(want) {
		t.Fatalf("ones: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ones: %v", got)
		}
	}
	if v.FirstOne() != 5 || v.LastOne() != 199 {
		t.Errorf("first/last: %d/%d", v.FirstOne(), v.LastOne())
	}
	z := New(66)
	if z.FirstOne() != -1 || z.LastOne() != -1 {
		t.Error("first/last of zero vector")
	}
}

func TestSliceConcat(t *testing.T) {
	v := FromOnes(16, 1, 7, 8, 15)
	lo := v.Slice(0, 8)
	hi := v.Slice(8, 16)
	if !lo.Equal(FromOnes(8, 1, 7)) {
		t.Errorf("lo: %v", lo.Ones())
	}
	if !hi.Equal(FromOnes(8, 0, 7)) {
		t.Errorf("hi: %v", hi.Ones())
	}
	if !lo.Concat(hi).Equal(v) {
		t.Error("concat(slice lo, slice hi) != v")
	}
}

func TestAnd(t *testing.T) {
	a := FromOnes(70, 0, 1, 65)
	b := FromOnes(70, 1, 2, 65)
	if got := a.And(b); !got.Equal(FromOnes(70, 1, 65)) {
		t.Errorf("and: %v", got.Ones())
	}
}

func TestKeyEquality(t *testing.T) {
	a := FromOnes(100, 3, 99)
	b := FromOnes(100, 3, 99)
	c := FromOnes(100, 3, 98)
	d := FromOnes(101, 3, 99)
	if a.Key() != b.Key() {
		t.Error("equal vectors, different keys")
	}
	if a.Key() == c.Key() {
		t.Error("different vectors, same key")
	}
	if a.Key() == d.Key() {
		t.Error("different widths, same key")
	}
}

// TestKeyPinned pins Key's bytes, which the service cache key and the
// decoder's candidate order are built on, and that the returned string
// is Key's only allocation.
func TestKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		v    Vector
		want string
	}{
		{New(0), "0:"},
		{FromOnes(16, 0, 9, 15), "16:\x01\x82\x00\x00\x00\x00\x00\x00"},
		{FromOnes(64, 0, 63), "64:\x01\x00\x00\x00\x00\x00\x00\x80"},
		{FromOnes(96, 1, 64, 95), "96:\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x80\x00\x00\x00\x00"},
	} {
		if got := tc.v.Key(); got != tc.want {
			t.Errorf("width %d: Key = %q, want %q", tc.v.Width(), got, tc.want)
		}
		if n := testing.AllocsPerRun(20, func() { _ = tc.v.Key() }); n > 1 {
			t.Errorf("width %d: Key makes %.0f allocations, want 1", tc.v.Width(), n)
		}
	}
}

// TestCompareMatchesKeyOrder checks Compare against the order of the
// Key strings it stands in for.
func TestCompareMatchesKeyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, w := range []int{0, 1, 9, 16, 64, 65, 96, 100} {
		vs := []Vector{New(w), New(w)}
		for i := 0; i < 8; i++ {
			vs = append(vs, randomVec(r, w))
		}
		for _, a := range vs {
			for _, b := range vs {
				if got, want := Compare(a, b), strings.Compare(a.Key(), b.Key()); got != want {
					t.Fatalf("width %d: Compare(%q, %q) = %d, want %d", w, a.Key(), b.Key(), got, want)
				}
			}
		}
	}
}

func TestUint64PanicsOnWide(t *testing.T) {
	v := FromOnes(100, 80)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	_ = v.Uint64()
}

func TestCloneIndependence(t *testing.T) {
	a := FromOnes(64, 10)
	b := a.Clone()
	b.Set(20, true)
	if a.Get(20) {
		t.Error("clone shares storage")
	}
	c := CloneAll([]Vector{a, a})
	c[0].Set(20, true)
	if a.Get(20) || c[1].Get(20) || !c[1].Equal(a) {
		t.Error("CloneAll copies share storage")
	}
	// A width past one word: each vector owns its words only.
	z := NewAll(3, 70)
	z[1].XorInPlace(FromOnes(70, 0, 69))
	if !z[0].IsZero() || !z[2].IsZero() || z[1].PopCount() != 2 {
		t.Error("NewAll vectors share storage")
	}
}

// randomVec builds a width-w vector with each bit set with probability 1/2.
func randomVec(r *rand.Rand, w int) Vector {
	v := New(w)
	for i := 0; i < w; i++ {
		if r.Intn(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestXorProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := 1 + r.Intn(200)
		a, b, c := randomVec(r, w), randomVec(r, w), randomVec(r, w)
		// Commutativity.
		if !a.Xor(b).Equal(b.Xor(a)) {
			t.Fatal("xor not commutative")
		}
		// Associativity.
		if !a.Xor(b).Xor(c).Equal(a.Xor(b.Xor(c))) {
			t.Fatal("xor not associative")
		}
		// Identity.
		if !a.Xor(New(w)).Equal(a) {
			t.Fatal("zero not identity")
		}
		// Self-inverse.
		if !a.Xor(a).IsZero() {
			t.Fatal("a xor a != 0")
		}
		// Popcount parity: |a^b| = |a|+|b| - 2|a&b|.
		if a.Xor(b).PopCount() != a.PopCount()+b.PopCount()-2*a.And(b).PopCount() {
			t.Fatal("popcount identity violated")
		}
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(raw []bool) bool {
		v := New(len(raw))
		for i, b := range raw {
			v.Set(i, b)
		}
		u, err := Parse(v.String())
		return err == nil && u.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickOnesRoundTrip(t *testing.T) {
	f := func(raw []bool) bool {
		v := New(len(raw))
		n := 0
		for i, b := range raw {
			v.Set(i, b)
			if b {
				n++
			}
		}
		ones := v.Ones()
		if len(ones) != n || v.PopCount() != n {
			return false
		}
		u := FromOnes(len(raw), ones...)
		return u.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAppendRenderingMatchesGet checks the word-level renderers against
// a bit-by-bit rendering through Get, at widths around word edges and
// after a non-empty prefix.
func TestAppendRenderingMatchesGet(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, w := range []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 200, 256, 300} {
		for trial := 0; trial < 4; trial++ {
			v := New(w)
			for i := 0; i < w; i++ {
				v.Set(i, r.Intn(2) == 1)
			}
			var lsb, msb strings.Builder
			for i := 0; i < w; i++ {
				lsb.WriteByte("01"[btoi(v.Get(i))])
				msb.WriteByte("01"[btoi(v.Get(w-1-i))])
			}
			if got := string(v.AppendLSB([]byte("x="))); got != "x="+lsb.String() {
				t.Fatalf("width %d: AppendLSB %q, want %q", w, got, "x="+lsb.String())
			}
			if got := string(v.AppendMSB([]byte("x="))); got != "x="+msb.String() {
				t.Fatalf("width %d: AppendMSB %q, want %q", w, got, "x="+msb.String())
			}
			if v.LSBString() != lsb.String() || v.String() != msb.String() {
				t.Fatalf("width %d: LSBString/String disagree with Get", w)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
