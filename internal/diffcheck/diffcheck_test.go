package diffcheck

import (
	"strings"
	"testing"
)

func TestRunSmallCorpusAgrees(t *testing.T) {
	cfg := Config{Seed: 1, Cases: 36, Workers: []int{2}}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, d := range rep.Divergences {
			t.Error(d.Error())
		}
		t.Fatalf("report not ok:\n%s", rep.Summary())
	}
	if rep.Cases != 36 {
		t.Errorf("cases %d", rep.Cases)
	}
	if rep.Comparisons == 0 {
		t.Error("no oracle-pair comparisons ran")
	}
	// Every k <= 4 case adds three comparisons under its window.
	if rep.WindowComparisons == 0 || rep.WindowComparisons%3 != 0 {
		t.Errorf("%d comparisons under a window, want a positive multiple of 3", rep.WindowComparisons)
	}
	// Every oracle family must have participated: the sweep includes
	// small m (exhaustive), k <= 4 (decode), and everything runs sat.
	for _, name := range []string{"decode", "sat", "sat-inc", "sat-par-2", "brute", "exhaustive", "dispatch"} {
		if rep.PerOracle[name] == 0 {
			t.Errorf("oracle %s never ran:\n%s", name, rep.Summary())
		}
	}
	if !strings.Contains(rep.Summary(), "0 divergences") {
		t.Errorf("summary: %s", rep.Summary())
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Cases: 12, Workers: []int{2}}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() != b.Summary() {
		t.Errorf("same seed, different summaries:\n%s\n%s", a.Summary(), b.Summary())
	}
}

func TestReplayRoundTrip(t *testing.T) {
	// A CaseSpec regenerated from its own fields must replay cleanly —
	// the repro contract for divergences reported from CI.
	cs := CaseSpec{
		Geometry:     Geometry{M: 16, B: 10, D: 4, Scheme: "random"},
		EncSeed:      42,
		K:            3,
		TruthChanges: []int{2, 7, 11},
	}
	entry, err := cs.Entry()
	if err != nil {
		t.Fatal(err)
	}
	cs.TP = entry.TP.String()
	rep, err := Replay(cs, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("replay diverged:\n%s", rep.Summary())
	}
	// A tampered TP is detected as a stale repro instead of silently
	// replaying a different case.
	bad := cs
	bad.TP = strings.Repeat("0", len(cs.TP))
	if entry.TP.String() != bad.TP {
		if _, err := Replay(bad, nil); err == nil {
			t.Error("stale repro (wrong TP) accepted")
		}
	}
}

func TestUnknownScheme(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Cases: 1, Sweep: []Geometry{{M: 8, B: 8, Scheme: "nope"}}}); err == nil {
		t.Error("unknown scheme accepted")
	}
}
