package timeprints_test

import (
	"bytes"
	"testing"

	timeprints "repro"
)

// TestFacadeEndToEnd walks the full public API: encode, log, serialize,
// reconstruct, check a property.
func TestFacadeEndToEnd(t *testing.T) {
	enc, err := timeprints.NewEncoding(64, 13)
	if err != nil {
		t.Fatal(err)
	}
	if enc.M() != 64 || enc.B() != 13 {
		t.Fatal("encoding dims")
	}

	// Stream a wire through the logger: changes at cycles 10, 11, 40.
	logger := timeprints.NewLogger(enc)
	level := false
	var entry timeprints.LogEntry
	for i := 0; i < 64; i++ {
		if i == 10 || i == 11 || i == 40 {
			level = !level
		}
		if e, done := logger.TickValue(level); done {
			entry = e
		}
	}
	if entry.K != 3 {
		t.Fatalf("k = %d", entry.K)
	}

	// Wire round trip.
	var buf bytes.Buffer
	if err := timeprints.WriteLog(&buf, 64, 13, []timeprints.LogEntry{entry}); err != nil {
		t.Fatal(err)
	}
	m, b, entries, err := timeprints.ReadLog(&buf)
	if err != nil || m != 64 || b != 13 || len(entries) != 1 || !entries[0].Equal(entry) {
		t.Fatalf("wire round trip: m=%d b=%d err=%v", m, b, err)
	}

	// Reconstruct; the true signal must be among the candidates.
	rec, err := timeprints.NewReconstructor(enc, entry, nil, timeprints.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigs, complete, err := rec.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	if !complete || len(sigs) == 0 {
		t.Fatal("reconstruction failed")
	}
	truth := timeprints.SignalFromChanges(64, 10, 11, 40)
	found := false
	for _, s := range sigs {
		if s.Equal(truth) {
			found = true
		}
	}
	if !found {
		t.Fatal("true signal not reconstructed")
	}

	// Cross-check against the brute-force baseline on a small
	// instance (its coset enumeration is 2^(m-b)).
	smallEnc, err := timeprints.NewEncoding(16, 9)
	if err != nil {
		t.Fatal(err)
	}
	smallEntry := timeprints.Log(smallEnc, timeprints.SignalFromChanges(16, 3, 4, 9))
	bf, err := timeprints.BruteForce(smallEnc, smallEntry, 0)
	if err != nil {
		t.Fatal(err)
	}
	smallRec, err := timeprints.NewReconstructor(smallEnc, smallEntry, nil, timeprints.Options{})
	if err != nil {
		t.Fatal(err)
	}
	smallSigs, _, err := smallRec.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf) != len(smallSigs) {
		t.Fatalf("SAT %d vs brute force %d", len(smallSigs), len(bf))
	}

	// Property query: some change before cycle 12 — must hold for the
	// truth; the UNSAT dual proves nothing quiet-before-12 matches iff
	// all candidates change early.
	if !(timeprints.ChangeBefore{D: 12}).Holds(truth) {
		t.Fatal("property semantics")
	}
}

func TestFacadeLogRate(t *testing.T) {
	// Table 1's R column geometry: m=1024, b=24 at 100 MHz.
	r := timeprints.LogRate(24, 1024, 100e6)
	want := float64(24+11) / 1024 * 100e6
	if r != want {
		t.Fatalf("rate %f want %f", r, want)
	}
	if timeprints.BitsPerTraceCycle(24, 1000) != 34 {
		t.Fatal("CAN geometry")
	}
}

func TestFacadeEncodings(t *testing.T) {
	if _, err := timeprints.NewRandomEncoding(32, 16, 1); err != nil {
		t.Error(err)
	}
	e, err := timeprints.MinimalEncoding(16)
	if err != nil {
		t.Error(err)
	}
	if e.B() > 10 {
		t.Errorf("minimal b=%d suspiciously large for m=16", e.B())
	}
	oh := timeprints.OneHotEncoding(8)
	if oh.B() != 8 {
		t.Error("one-hot width")
	}
	if _, err := timeprints.NewEncodingDepth(16, 8, 2); err != nil {
		t.Error(err)
	}
}

func TestFacadeConstrainedReconstruction(t *testing.T) {
	enc, err := timeprints.NewEncoding(32, 11)
	if err != nil {
		t.Fatal(err)
	}
	truth := timeprints.SignalFromChanges(32, 4, 5, 20, 21)
	entry := timeprints.Log(enc, truth)
	rec, err := timeprints.NewReconstructor(enc, entry,
		[]timeprints.Constraint{timeprints.PairedChanges{}}, timeprints.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigs, complete, err := rec.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatal("not exhausted")
	}
	for _, s := range sigs {
		if !(timeprints.PairedChanges{}).Holds(s) {
			t.Fatal("constraint violated")
		}
	}
	// DelayedVariants is exported and usable.
	dv := timeprints.DelayedVariants(truth, 1)
	if len(dv.Candidates) == 0 {
		t.Fatal("no delayed variants")
	}
}

func TestFacadeStatusConstants(t *testing.T) {
	if timeprints.Sat.String() != "SAT" || timeprints.Unsat.String() != "UNSAT" || timeprints.Unknown.String() != "UNKNOWN" {
		t.Fatal("status constants")
	}
}

func TestFacadeMonitors(t *testing.T) {
	mon := timeprints.NewMonitor(timeprints.NewDkMonitor(4, 1), 8)
	for i := 0; i < 8; i++ {
		mon.Tick(i == 2)
	}
	vs := mon.Verdicts()
	if len(vs) != 1 || !vs[0].Satisfied {
		t.Fatalf("verdicts %+v", vs)
	}
	if cs := mon.Constraints(0); len(cs) != 1 {
		t.Fatal("verdict did not yield a constraint")
	}
	if _, err := timeprints.NewResponseMonitor(0); err == nil {
		t.Fatal("bad response bound accepted")
	}
	for _, f := range []timeprints.MonitorFSM{
		timeprints.NewMinGapMonitor(2),
		timeprints.NewWindowMonitor(0, 4),
		timeprints.NewPairedChangesMonitor(),
		timeprints.NewPeriodicMonitor(4, 1),
	} {
		if f.String() == "" {
			t.Fatal("unnamed monitor")
		}
	}
}
