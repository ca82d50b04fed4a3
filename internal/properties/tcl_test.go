package properties

import (
	"testing"

	"repro/internal/core"
)

func TestResponseCompilation(t *testing.T) {
	for _, p := range []Response{{L: 1, U: 2}, {L: 2, U: 4}, {L: 1, U: 1}} {
		checkCompilation(t, p, 9)
	}
}

func TestResponseSemantics(t *testing.T) {
	p := Response{L: 1, U: 3}
	cases := []struct {
		changes []int
		want    bool
	}{
		{nil, true},
		{[]int{5, 7}, true},    // 5 -> 7 within [1,3]; 7 truncated
		{[]int{2, 4}, false},   // 4 needs a successor in [5,7]
		{[]int{2, 6}, false},   // gap 4 > U
		{[]int{7}, true},       // window truncated (7+3 >= 10)
		{[]int{2, 4, 7}, true}, // 2->4, 4->7, 7 truncated
		{[]int{0, 5}, false},   // 0 -> 5 too far
	}
	for _, tc := range cases {
		s := core.SignalFromChanges(10, tc.changes...)
		if got := p.Holds(s); got != tc.want {
			t.Errorf("Response%v on %v = %v, want %v", p, tc.changes, got, tc.want)
		}
	}
}

func TestResponseValidation(t *testing.T) {
	if err := (Response{L: 0, U: 2}).Validate(4); err == nil {
		t.Error("L=0 accepted")
	}
	if err := (Response{L: 3, U: 2}).Validate(4); err == nil {
		t.Error("U<L accepted")
	}
}

func TestPeriodicCompilation(t *testing.T) {
	for _, p := range []Periodic{{Period: 3, Jitter: 0}, {Period: 4, Jitter: 1}, {Period: 2, Jitter: 0}} {
		checkCompilation(t, p, 10)
	}
}

func TestPeriodicSemantics(t *testing.T) {
	p := Periodic{Period: 5, Jitter: 1}
	// Allowed cycles: within 1 of {0, 5, 10, ...}: 0,1,4,5,6,9,10,11...
	good := core.SignalFromChanges(12, 0, 4, 6, 9)
	if !p.Holds(good) {
		t.Error("good periodic rejected")
	}
	bad := core.SignalFromChanges(12, 3)
	if p.Holds(bad) {
		t.Error("off-phase change accepted")
	}
}

func TestMaxGapCompilation(t *testing.T) {
	for _, p := range []MaxGap{{Gap: 1}, {Gap: 2}, {Gap: 4}} {
		checkCompilation(t, p, 8)
	}
}

func TestMaxGapSemantics(t *testing.T) {
	p := MaxGap{Gap: 3}
	if !p.Holds(core.SignalFromChanges(12, 1, 3, 6)) {
		t.Error("gaps within bound rejected")
	}
	if p.Holds(core.SignalFromChanges(12, 1, 6)) {
		t.Error("gap 5 accepted")
	}
	if !p.Holds(core.SignalFromChanges(12, 1)) {
		t.Error("single change rejected (final gap is truncated)")
	}
	if !p.Holds(core.SignalFromChanges(12)) {
		t.Error("quiet signal rejected")
	}
}

func TestCountBetweenCompilation(t *testing.T) {
	for _, p := range []CountBetween{
		{Lo: 0, Hi: 8, Min: 2, Max: 4},
		{Lo: 2, Hi: 6, Min: 0, Max: 1},
		{Lo: 3, Hi: 8, Min: 3, Max: -1},
		{Lo: 0, Hi: 0, Min: 0, Max: 0},
	} {
		checkCompilation(t, p, 8)
	}
}

func TestCountBetweenGeneralizesDk(t *testing.T) {
	// CountBetween[0,D) with Min=k, unbounded Max == Dk.
	dk := Dk{D: 6, K: 2}
	cb := CountBetween{Lo: 0, Hi: 6, Min: 2, Max: -1}
	for mask := uint64(0); mask < 1<<10; mask++ {
		s := core.SignalFromVector(vecFromMask(mask, 10))
		if dk.Holds(s) != cb.Holds(s) {
			t.Fatalf("Dk and CountBetween disagree on %s", s)
		}
	}
}

func TestFirstChangeInCompilation(t *testing.T) {
	for _, p := range []FirstChangeIn{{Lo: 0, Hi: 4}, {Lo: 2, Hi: 7}, {Lo: 5, Hi: 8}} {
		checkCompilation(t, p, 8)
	}
}

func TestFirstChangeInSemantics(t *testing.T) {
	p := FirstChangeIn{Lo: 2, Hi: 5}
	if !p.Holds(core.SignalFromChanges(8, 3, 7)) {
		t.Error("first change in window rejected")
	}
	if p.Holds(core.SignalFromChanges(8, 1, 3)) {
		t.Error("early first change accepted")
	}
	if p.Holds(core.SignalFromChanges(8, 6)) {
		t.Error("late first change accepted")
	}
	if p.Holds(core.SignalFromChanges(8)) {
		t.Error("quiet signal accepted")
	}
}

func TestTCLConjunction(t *testing.T) {
	// A realistic composite: periodic sensor with bounded burst count.
	p := All{
		Periodic{Period: 4, Jitter: 1},
		CountBetween{Lo: 0, Hi: 12, Min: 1, Max: 3},
	}
	checkCompilation(t, p, 12)
}
