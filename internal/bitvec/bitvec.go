// Package bitvec implements fixed-width bit vectors over F2, the field
// with two elements. Vectors are the fundamental carrier type of the
// timeprints method: encoded timestamps, timeprints and signal
// change-maps are all F2 vectors, and timeprint aggregation is vector
// addition over F2 (bitwise XOR).
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
)

const wordBits = 64

// Vector is a fixed-width vector over F2. Bit 0 is the least-significant
// bit of the first word. The zero value is an empty (width-0) vector.
//
// Vectors of different widths never compare equal and may not be XORed
// together; such misuse panics, since it always indicates a programming
// error in an encoding or logging pipeline rather than a runtime
// condition to recover from.
type Vector struct {
	width int
	words []uint64
}

// New returns a zero vector of the given width in bits.
func New(width int) Vector {
	if width < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", width))
	}
	return Vector{width: width, words: make([]uint64, wordsFor(width))}
}

func wordsFor(width int) int { return (width + wordBits - 1) / wordBits }

// FromUint returns a width-bit vector whose low 64 bits are taken from v.
// Bits of v beyond width are discarded.
func FromUint(v uint64, width int) Vector {
	out := New(width)
	if width == 0 {
		return out
	}
	if width < wordBits {
		v &= (1 << uint(width)) - 1
	}
	out.words[0] = v
	return out
}

// FromBits returns a vector with width len(bits); bits[i] != 0 sets bit i.
func FromBits(bitvals []int) Vector {
	out := New(len(bitvals))
	for i, b := range bitvals {
		if b != 0 {
			out.Set(i, true)
		}
	}
	return out
}

// FromOnes returns a zero vector of the given width with the listed bit
// positions set to 1. Positions out of range panic.
func FromOnes(width int, ones ...int) Vector {
	out := New(width)
	for _, i := range ones {
		out.Set(i, true)
	}
	return out
}

// CloneAll returns independent copies of vs that share one backing
// array: two allocations, however many vectors there are.
func CloneAll(vs []Vector) []Vector {
	n := 0
	for _, v := range vs {
		n += len(v.words)
	}
	backing := make([]uint64, n)
	out := make([]Vector, len(vs))
	for i, v := range vs {
		k := len(v.words)
		out[i] = Vector{width: v.width, words: backing[:k:k]}
		copy(out[i].words, v.words)
		backing = backing[k:]
	}
	return out
}

// NewAll returns n zero vectors of the given width that share one
// backing array: two allocations, however many vectors there are.
func NewAll(n, width int) []Vector {
	k := wordsFor(width)
	backing := make([]uint64, n*k)
	out := make([]Vector, n)
	for i := range out {
		out[i] = Vector{width: width, words: backing[i*k : (i+1)*k : (i+1)*k]}
	}
	return out
}

// Width reports the vector's width in bits.
func (v Vector) Width() int { return v.width }

// Get reports whether bit i is set. It panics if i is out of range.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Word returns bits [64i, 64i+64) of v as an integer: bit j of the
// result is bit 64i+j of v, and bits past the width read as 0. It lets
// word-level kernels test a bit without Get's per-bit range check.
func (v Vector) Word(i int) uint64 { return v.words[i] }

// Set sets bit i to the given value. It panics if i is out of range.
func (v Vector) Set(i int, val bool) {
	v.check(i)
	if val {
		v.words[i/wordBits] |= 1 << uint(i%wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << uint(i%wordBits)
	}
}

// Flip toggles bit i. It panics if i is out of range.
func (v Vector) Flip(i int) {
	v.check(i)
	v.words[i/wordBits] ^= 1 << uint(i%wordBits)
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.width))
	}
}

// XorInPlace adds u to v over F2, mutating v. Widths must match.
func (v Vector) XorInPlace(u Vector) {
	if v.width != u.width {
		panic(fmt.Sprintf("bitvec: width mismatch %d vs %d", v.width, u.width))
	}
	for i := range v.words {
		v.words[i] ^= u.words[i]
	}
}

// Xor returns v + u over F2 without mutating either operand.
func (v Vector) Xor(u Vector) Vector {
	out := v.Clone()
	out.XorInPlace(u)
	return out
}

// And returns the bitwise AND of v and u. Widths must match.
func (v Vector) And(u Vector) Vector {
	if v.width != u.width {
		panic(fmt.Sprintf("bitvec: width mismatch %d vs %d", v.width, u.width))
	}
	out := v.Clone()
	for i := range out.words {
		out.words[i] &= u.words[i]
	}
	return out
}

// PopCount returns the number of 1-bits in v.
func (v Vector) PopCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsZero reports whether every bit of v is 0.
func (v Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and u have the same width and bits.
func (v Vector) Equal(u Vector) bool {
	if v.width != u.width {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := Vector{width: v.width, words: make([]uint64, len(v.words))}
	copy(out.words, v.words)
	return out
}

// Ones returns the positions of the 1-bits of v in increasing order.
func (v Vector) Ones() []int {
	out := make([]int, 0, v.PopCount())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// FirstOne returns the position of the lowest set bit, or -1 if v is zero.
func (v Vector) FirstOne() int {
	for wi, w := range v.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// LastOne returns the position of the highest set bit, or -1 if v is zero.
func (v Vector) LastOne() int {
	for wi := len(v.words) - 1; wi >= 0; wi-- {
		if w := v.words[wi]; w != 0 {
			return wi*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Uint64 returns the low 64 bits of v as an integer. It panics if v is
// wider than 64 bits and has any bit set at position >= 64.
func (v Vector) Uint64() uint64 {
	if len(v.words) == 0 {
		return 0
	}
	for _, w := range v.words[1:] {
		if w != 0 {
			panic("bitvec: Uint64 on vector with bits above 63")
		}
	}
	return v.words[0]
}

// String renders v MSB-first as a binary string, matching the bitvector
// notation used in the paper's Figure 4 (e.g. "00000001" for a vector
// whose only set bit is bit 0).
func (v Vector) String() string {
	// The stack buffer holds any vector up to 256 bits wide, so the
	// returned string is the only allocation.
	var stack [256]byte
	return string(v.AppendMSB(stack[:0]))
}

// LSBString renders v LSB-first (bit 0 leftmost), the natural reading
// order when bit i corresponds to clock-cycle i of a trace-cycle.
func (v Vector) LSBString() string {
	var stack [256]byte
	return string(v.AppendLSB(stack[:0]))
}

// AppendMSB appends String's rendering of v to dst, reading whole words
// rather than testing each bit through Get.
func (v Vector) AppendMSB(dst []byte) []byte {
	dst = slices.Grow(dst, v.width)
	out := dst[len(dst) : len(dst)+v.width]
	for wi := len(v.words) - 1; wi >= 0; wi-- {
		w := v.words[wi]
		for j := min(wordBits, v.width-wi*wordBits) - 1; j >= 0; j-- {
			out[0] = '0' + byte(w>>uint(j)&1)
			out = out[1:]
		}
	}
	return dst[:len(dst)+v.width]
}

// AppendLSB appends LSBString's rendering of v to dst, reading whole
// words rather than testing each bit through Get.
func (v Vector) AppendLSB(dst []byte) []byte {
	dst = slices.Grow(dst, v.width)
	out := dst[len(dst) : len(dst)+v.width]
	for wi, w := range v.words {
		chunk := out[wi*wordBits:]
		for j := range min(len(chunk), wordBits) {
			chunk[j] = '0' + byte(w>>uint(j)&1)
		}
	}
	return dst[:len(dst)+v.width]
}

// Parse parses an MSB-first binary string (as produced by String) into a
// vector of width len(s).
func Parse(s string) (Vector, error) {
	out := New(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			out.Set(len(s)-1-i, true)
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid character %q at %d", c, i)
		}
	}
	return out, nil
}

// MustParse is Parse that panics on malformed input; for tests and
// literals.
func MustParse(s string) Vector {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// ParseLSB parses an LSB-first binary string (as produced by LSBString).
func ParseLSB(s string) (Vector, error) {
	out := New(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			out.Set(i, true)
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid character %q at %d", c, i)
		}
	}
	return out, nil
}

// Slice returns the sub-vector of bits [lo, hi) as a new vector of width
// hi-lo.
func (v Vector) Slice(lo, hi int) Vector {
	if lo < 0 || hi > v.width || lo > hi {
		panic(fmt.Sprintf("bitvec: bad slice [%d,%d) of width %d", lo, hi, v.width))
	}
	out := New(hi - lo)
	for i := lo; i < hi; i++ {
		if v.Get(i) {
			out.Set(i-lo, true)
		}
	}
	return out
}

// Concat returns the concatenation of v (low bits) and u (high bits).
func (v Vector) Concat(u Vector) Vector {
	out := New(v.width + u.width)
	for _, i := range v.Ones() {
		out.Set(i, true)
	}
	for _, i := range u.Ones() {
		out.Set(v.width+i, true)
	}
	return out
}

// Key returns a comparable representation of v suitable for use as a map
// key. Two vectors have the same key iff Equal reports true. The key is
// the decimal width and a colon, followed by AppendBytes' output.
func (v Vector) Key() string {
	// The stack buffer holds the key of any vector up to 320 bits wide,
	// so the returned string is the only allocation; wider keys grow it.
	var stack [48]byte
	key := append(strconv.AppendInt(stack[:0], int64(v.width), 10), ':')
	return string(v.AppendBytes(key))
}

// AppendBytes appends v's words to dst as little-endian bytes, eight per
// word: Key without its width prefix. Among vectors of one width these
// bytes identify the vector, so they can key a map on their own.
func (v Vector) AppendBytes(dst []byte) []byte {
	for _, w := range v.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Compare returns -1, 0 or +1 as a.Key() sorts before, equal to or after
// b.Key(), without building either key. Widths must match.
func Compare(a, b Vector) int {
	if a.width != b.width {
		panic(fmt.Sprintf("bitvec: width mismatch %d vs %d", a.width, b.width))
	}
	for i, w := range a.words {
		// Reversing the bytes turns little-endian byte order into
		// integer order.
		x, y := bits.ReverseBytes64(w), bits.ReverseBytes64(b.words[i])
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	}
	return 0
}
