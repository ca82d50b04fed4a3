package decode

import (
	"slices"
	"testing"
)

// TestWordTableNewestFirst pins the multimap's rules: a key's values
// come back newest first, so for duplicate timestamps the single index
// answers the last clock-cycle, as the map it replaced did; absent keys
// give -1; and two-word keys differing in one word stay apart.
func TestWordTableNewestFirst(t *testing.T) {
	tbl := newWordTable(2, 5)
	tbl.add([]uint64{1, 9}, 0)
	tbl.add([]uint64{2, 9}, 1)
	tbl.add([]uint64{1, 9}, 2)
	tbl.add([]uint64{1, 8}, 3)
	tbl.add([]uint64{1, 9}, 4)
	var got []int32
	for e := tbl.first([]uint64{1, 9}); e >= 0; e = tbl.next[e] {
		got = append(got, tbl.vals[e])
	}
	if !slices.Equal(got, []int32{4, 2, 0}) {
		t.Fatalf("values under {1,9}: %v, want [4 2 0]", got)
	}
	if e := tbl.first([]uint64{1, 8}); e < 0 || tbl.vals[e] != 3 || tbl.next[e] >= 0 {
		t.Fatalf("values under {1,8}: entry %d", e)
	}
	if e := tbl.first([]uint64{9, 1}); e >= 0 {
		t.Fatalf("absent key found entry %d", e)
	}
}
