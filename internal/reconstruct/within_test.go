package reconstruct

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/sat"
)

// A pre-closed done channel interrupts the enumeration almost
// immediately; the binary encoding at m=64 is ambiguous enough that an
// exhaustive enumeration cannot finish first, so the typed interrupt
// error must surface.
func TestEnumerateWithinInterrupted(t *testing.T) {
	enc := encoding.Binary(64)
	truth := core.SignalFromChanges(64, 3, 9, 17, 30, 41, 50)
	rec, err := New(enc, core.Log(enc, truth), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	_, exhausted, err := rec.EnumerateWithin(done, 0)
	if !errors.Is(err, sat.ErrInterrupted) {
		t.Fatalf("err = %v, want sat.ErrInterrupted", err)
	}
	if exhausted {
		t.Fatal("interrupted enumeration reported exhaustion")
	}
}

// With no cancellation signal, EnumerateWithin matches Enumerate
// exactly and leaves the solver usable for the next query.
func TestEnumerateWithinCompletes(t *testing.T) {
	enc := mustEnc(t, 14, 10, 4)
	truth := core.SignalFromChanges(14, 2, 5, 11)
	entry := core.Log(enc, truth)

	rec, err := New(enc, entry, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigs, exhausted, err := rec.EnumerateWithin(make(chan struct{}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !exhausted {
		t.Fatal("not exhausted")
	}
	ref, refExhausted, err := mustNew(t, enc, entry).EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	if !refExhausted || len(ref) != len(sigs) {
		t.Fatalf("EnumerateWithin found %d, Enumerate found %d", len(sigs), len(ref))
	}
	sk, rk := sigKeySet(sigs), sigKeySet(ref)
	for k := range sk {
		if !rk[k] {
			t.Fatal("solution sets differ")
		}
	}
	if !sk[truth.Vector().Key()] {
		t.Fatal("true signal missing")
	}
}

func mustNew(t testing.TB, enc *encoding.Encoding, entry core.LogEntry) *Reconstructor {
	t.Helper()
	rec, err := New(enc, entry, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}
