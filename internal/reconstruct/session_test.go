package reconstruct

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/properties"
	"repro/internal/sat"
)

func randomEntry(r *rand.Rand, m int, enc interface {
	M() int
}) core.Signal {
	v := bitvec.New(m)
	for i := 0; i < m; i++ {
		if r.Intn(3) == 0 {
			v.Set(i, true)
		}
	}
	return core.SignalFromVector(v)
}

// TestSessionMatchesOneShot runs many (TP, k) queries against ONE
// session and checks every answer bit-exactly against a fresh one-shot
// Reconstructor.
func TestSessionMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		m := 10 + r.Intn(7)
		enc := mustEnc(t, m, 9+r.Intn(3), 4)
		sess := NewSession(enc, SessionOptions{})
		for q := 0; q < 12; q++ {
			entry := core.Log(enc, randomEntry(r, m, enc))
			got, exhausted, err := sess.Query(entry, nil, 0)
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, q, err)
			}
			if !exhausted {
				t.Fatalf("trial %d query %d: not exhausted", trial, q)
			}
			rec, err := New(enc, entry, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, wantEx, err := rec.EnumerateStrict(0)
			if err != nil {
				t.Fatal(err)
			}
			if !wantEx {
				t.Fatal("one-shot not exhausted")
			}
			gk, wk := sigKeySet(got), sigKeySet(want)
			if len(gk) != len(wk) {
				t.Fatalf("trial %d query %d: session %d signals, one-shot %d", trial, q, len(gk), len(wk))
			}
			for k := range wk {
				if !gk[k] {
					t.Fatalf("trial %d query %d: session missing %s", trial, q, k)
				}
			}
		}
	}
}

// TestSessionProperties checks property constraints arm and disarm per
// query: a constrained query must match the constrained one-shot path,
// and the following unconstrained query must be unaffected.
func TestSessionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m := 14
	enc := mustEnc(t, m, 10, 4)
	sess := NewSession(enc, SessionOptions{})
	cons := []Constraint{properties.Window{Lo: 2, Hi: 11}, properties.QuietBefore{D: 2}}
	for q := 0; q < 10; q++ {
		entry := core.Log(enc, randomEntry(r, m, enc))
		var use []Constraint
		if q%3 != 2 {
			use = cons[:1+q%2]
		}
		got, exhausted, err := sess.Query(entry, use, 0)
		if err != nil || !exhausted {
			t.Fatalf("query %d: exhausted=%v err=%v", q, exhausted, err)
		}
		rec, err := New(enc, entry, use, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, wantEx, err := rec.EnumerateStrict(0)
		if err != nil {
			t.Fatal(err)
		}
		if !wantEx {
			t.Fatal("one-shot not exhausted")
		}
		gk, wk := sigKeySet(got), sigKeySet(want)
		if len(gk) != len(wk) {
			t.Fatalf("query %d (%d constraints): session %d signals, one-shot %d", q, len(use), len(gk), len(wk))
		}
		for k := range wk {
			if !gk[k] {
				t.Fatalf("query %d: session missing %s", q, k)
			}
		}
	}
}

// TestSessionKBounds: k within the ladder and k beyond it are both
// answered. A k past the ladder widens it in place by one rung of m
// variables, matches a one-shot instance, and repeating it adds only
// the enumeration's retired selector.
func TestSessionKBounds(t *testing.T) {
	m := 12
	enc := mustEnc(t, m, 9, 4)
	sess := NewSession(enc, SessionOptions{MaxK: 3})
	truth := core.SignalFromChanges(m, 1, 4, 6, 9)
	entry := core.Log(enc, truth) // k = 4 > MaxK
	rec, err := New(enc, entry, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rec.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	for q, growth := range []int{m + 1, 1} {
		before := sess.numVars()
		got, exhausted, err := sess.Query(entry, nil, 0)
		if err != nil || !exhausted {
			t.Fatalf("k=4 query %d: exhausted=%v err=%v", q, exhausted, err)
		}
		if gk, wk := sigKeys(got), sigKeys(want); !slices.Equal(gk, wk) {
			t.Fatalf("k=4 query %d: session %v, one-shot %v", q, gk, wk)
		}
		if w := sess.ladder.Width(); w != 5 {
			t.Fatalf("k=4 query %d: ladder %d wide, want 5", q, w)
		}
		if g := sess.numVars() - before; g != growth {
			t.Fatalf("k=4 query %d added %d variables, want %d", q, g, growth)
		}
	}
	truth = core.SignalFromChanges(m, 1, 4, 6)
	entry = core.Log(enc, truth)
	sigs, exhausted, err := sess.Query(entry, nil, 0)
	if err != nil || !exhausted || len(sigs) == 0 {
		t.Fatalf("k=3 query failed: %d signals, exhausted=%v, err=%v", len(sigs), exhausted, err)
	}
	// k = 0 (empty signal) must also be queryable.
	entry = core.Log(enc, core.SignalFromChanges(m))
	sigs, exhausted, err = sess.Query(entry, nil, 0)
	if err != nil || !exhausted {
		t.Fatalf("k=0 query failed: exhausted=%v err=%v", exhausted, err)
	}
	found := false
	for _, s := range sigs {
		if s.K() == 0 {
			found = true
		}
	}
	if !found || len(sigs) != 1 {
		t.Fatalf("k=0 expected exactly the empty signal, got %d signals", len(sigs))
	}
}

// TestSessionCloneIndependence: a clone answers queries identically
// and independently, including after the original has accumulated
// state.
func TestSessionCloneIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	m := 13
	enc := mustEnc(t, m, 10, 4)
	sess := NewSession(enc, SessionOptions{})
	// Warm the original.
	for q := 0; q < 4; q++ {
		entry := core.Log(enc, randomEntry(r, m, enc))
		if _, _, err := sess.Query(entry, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	clone := sess.Clone()
	entry := core.Log(enc, randomEntry(r, m, enc))
	a, aEx, err1 := sess.Query(entry, nil, 0)
	b, bEx, err2 := clone.Query(entry, nil, 0)
	if err1 != nil || err2 != nil || !aEx || !bEx {
		t.Fatalf("errs %v/%v exhausted %v/%v", err1, err2, aEx, bEx)
	}
	ak, bk := sigKeySet(a), sigKeySet(b)
	if len(ak) != len(bk) {
		t.Fatalf("original %d signals, clone %d", len(ak), len(bk))
	}
	for k := range ak {
		if !bk[k] {
			t.Fatalf("clone missing %s", k)
		}
	}
}

// TestSessionInterruptRecovers: a fired deadline interrupts the query
// but must not poison the session for the next one. The binary
// encoding at m=64 is ambiguous enough that the exhaustive enumeration
// cannot finish before the pre-closed done channel interrupts it.
func TestSessionInterruptRecovers(t *testing.T) {
	enc := encoding.Binary(64)
	sess := NewSession(enc, SessionOptions{})
	truth := core.SignalFromChanges(64, 3, 9, 17, 30, 41, 50)
	entry := core.Log(enc, truth)
	done := make(chan struct{})
	close(done) // already expired
	_, exhausted, err := sess.EnumerateWithin(done, entry, nil, 0)
	if !errors.Is(err, sat.ErrInterrupted) {
		t.Fatalf("err = %v, want sat.ErrInterrupted", err)
	}
	if exhausted {
		t.Fatal("interrupted enumeration reported exhaustion")
	}
	// The next query on the SAME session must run to completion: the
	// interrupt flag was cleared and the blocking clauses dropped.
	small := core.SignalFromChanges(64, 5)
	sigs, exhausted, err := sess.Query(core.Log(enc, small), nil, 4)
	if err != nil || len(sigs) == 0 {
		t.Fatalf("session poisoned after interrupt: %d signals, exhausted=%v, err=%v", len(sigs), exhausted, err)
	}
}

// TestSessionSeparatesEqualSizeCandidateSets queries one session with
// two unnamed OneOfSignals sets of the same size: each query must be
// answered under its own candidates, not under a guard group the first
// one registered.
func TestSessionSeparatesEqualSizeCandidateSets(t *testing.T) {
	enc := mustEnc(t, 16, 9, 4)
	truth := core.SignalFromChanges(16, 3, 7)
	entry := core.Log(enc, truth)
	sess := NewSession(enc, SessionOptions{})
	with := properties.OneOfSignals{Candidates: []core.Signal{truth, core.SignalFromChanges(16, 1, 2)}}
	without := properties.OneOfSignals{Candidates: []core.Signal{core.SignalFromChanges(16, 4, 9), core.SignalFromChanges(16, 5, 6)}}
	for _, tc := range []struct {
		prop properties.OneOfSignals
		want int
	}{{with, 1}, {without, 0}, {with, 1}} {
		sigs, exhausted, err := sess.Query(entry, []Constraint{tc.prop}, 0)
		if err != nil || !exhausted {
			t.Fatalf("%s: exhausted=%v err=%v", tc.prop, exhausted, err)
		}
		if len(sigs) != tc.want || (tc.want == 1 && !sigs[0].Equal(truth)) {
			t.Fatalf("%s: got %v, want %d candidate(s)", tc.prop, sigs, tc.want)
		}
	}
}

// TestSessionOracleRetiresOvergrownSession drives the pool's one
// session past the variable ceiling with distinct Window properties
// (each adds a permanent guard, each enumeration a retired selector)
// and checks that the overgrown session is dropped rather than reused,
// while every answer still matches brute force.
func TestSessionOracleRetiresOvergrownSession(t *testing.T) {
	const m = 16
	enc := mustEnc(t, m, 9, 4)
	reg := obs.NewRegistry()
	o := NewSessionOracle(enc, SessionOptions{MaxK: 3, Obs: reg})
	brute := forcedTo(t, enc, RouteBrute)
	r := rand.New(rand.NewSource(53))
	ctx := context.Background()
	counter := func(name string) int64 { return reg.Snapshot().Counters[name] }
	query := func(lo, hi int) {
		t.Helper()
		changes := r.Perm(hi - lo)[:min(3, hi-lo)]
		for i := range changes {
			changes[i] += lo
		}
		entry := core.Log(enc, core.SignalFromChanges(m, changes...))
		cons := []Constraint{properties.Window{Lo: lo, Hi: hi}}
		got, ex, err := o.Enumerate(ctx, entry, cons, 0)
		if err != nil || !ex {
			t.Fatalf("Window[%d,%d): exhausted=%v err=%v", lo, hi, ex, err)
		}
		want, _, err := brute.Enumerate(ctx, entry, cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		gk, wk := sigKeySet(got), sigKeySet(want)
		if len(gk) != len(wk) {
			t.Fatalf("Window[%d,%d): session %d candidates, brute force %d", lo, hi, len(gk), len(wk))
		}
		for k := range wk {
			if !gk[k] {
				t.Fatalf("Window[%d,%d): session missing %s", lo, hi, k)
			}
		}
	}

	queries := 0
	for lo := 0; lo < m && counter(MetricOracleSessionRetired) == 0; lo++ {
		for hi := lo + 1; hi <= m && counter(MetricOracleSessionRetired) == 0; hi++ {
			query(lo, hi)
			queries++
		}
	}
	if counter(MetricOracleSessionRetired) != 1 {
		t.Fatalf("no session retired after %d distinct windows", queries)
	}
	t.Logf("retired after %d queries (prototype %d variables)", queries, o.proto.numVars())
	if reuse, clone := counter(MetricOracleSessionReuse), counter(MetricOracleSessionClone); reuse != int64(queries) || clone != 0 {
		t.Fatalf("before retirement: reuse=%d clone=%d, want %d/0", reuse, clone, queries)
	}
	// The retired session left the pool empty: the next query runs on a
	// fresh prototype clone, which then serves the query after it.
	query(0, m)
	if clone := counter(MetricOracleSessionClone); clone != 1 {
		t.Fatalf("after retirement: clone=%d, want 1 (the overgrown session was reused)", clone)
	}
	query(1, m)
	if reuse := counter(MetricOracleSessionReuse); reuse != int64(queries)+1 {
		t.Fatalf("after retirement: reuse=%d, want %d", reuse, queries+1)
	}
}

// TestSessionOracleConcurrentPool hammers one SessionOracle from
// several goroutines (run it under -race): every answer must match the
// serial one-shot SAT oracle, and the pool may clone at most one
// session per goroutine, since it grows only when every pooled session
// is busy.
func TestSessionOracleConcurrentPool(t *testing.T) {
	const m, goroutines, perG = 24, 4, 12
	enc := mustEnc(t, m, 11, 4)
	reg := obs.NewRegistry()
	o := NewSessionOracle(enc, SessionOptions{Obs: reg})
	ref := forcedTo(t, enc, RouteSAT)
	r := rand.New(rand.NewSource(59))
	ctx := context.Background()
	entries := make([]core.LogEntry, perG)
	want := make([]map[string]bool, perG)
	for i := range entries {
		entries[i] = core.Log(enc, core.SignalFromChanges(m, r.Perm(m)[:1+i%4]...))
		sigs, ex, err := ref.Enumerate(ctx, entries[i], nil, 0)
		if err != nil || !ex {
			t.Fatalf("reference entry %d: exhausted=%v err=%v", i, ex, err)
		}
		want[i] = sigKeySet(sigs)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range entries {
				i := (j + g) % perG
				sigs, ex, err := o.Enumerate(ctx, entries[i], nil, 0)
				if err != nil || !ex {
					t.Errorf("goroutine %d entry %d: exhausted=%v err=%v", g, i, ex, err)
					return
				}
				got := sigKeySet(sigs)
				if len(got) != len(want[i]) {
					t.Errorf("goroutine %d entry %d: %d candidates, serial SAT %d", g, i, len(got), len(want[i]))
					return
				}
				for k := range want[i] {
					if !got[k] {
						t.Errorf("goroutine %d entry %d: missing %s", g, i, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	reuse, clone := snap.Counters[MetricOracleSessionReuse], snap.Counters[MetricOracleSessionClone]
	if reuse+clone != goroutines*perG {
		t.Fatalf("reuse(%d) + clone(%d) != %d queries", reuse, clone, goroutines*perG)
	}
	if clone > goroutines {
		t.Fatalf("clone = %d > %d goroutines: the pool grew past peak concurrency", clone, goroutines)
	}
}

// TestSessionOracleServesLargeKWarm sends four k = 17 witness queries,
// one past the default 16-wide ladder, to one SessionOracle at the
// forensic geometry (m = 128, b = 16, depth 4). The first widens the
// pooled session's ladder by one rung; all four must run on that warm
// session, none retiring it.
func TestSessionOracleServesLargeKWarm(t *testing.T) {
	const m, k = 128, 17
	enc := mustEnc(t, m, 16, 4)
	reg := obs.NewRegistry()
	o := NewSessionOracle(enc, SessionOptions{Obs: reg})
	r := rand.New(rand.NewSource(61))
	for q := 0; q < 4; q++ {
		truth := core.SignalFromChanges(m, r.Perm(m)[:k]...)
		entry := core.Log(enc, truth)
		sigs, _, err := o.Enumerate(context.Background(), entry, nil, 1)
		if err != nil || len(sigs) != 1 {
			t.Fatalf("query %d: %d witnesses, err=%v", q, len(sigs), err)
		}
	}
	c := reg.Snapshot().Counters
	if reuse, clone, retired := c[MetricOracleSessionReuse], c[MetricOracleSessionClone], c[MetricOracleSessionRetired]; reuse != 4 || clone != 0 || retired != 0 {
		t.Fatalf("reuse=%d clone=%d retired=%d, want 4/0/0", reuse, clone, retired)
	}
	if w := o.proto.ladder.Width(); w != 17 {
		t.Fatalf("prototype ladder %d wide, want its initial 17", w)
	}
}

// TestSessionWidenWhileCloning widens one pooled session to k = 20
// while the pool clones the prototype for k <= 16 queries (run it
// under -race). The prototype's ladder keeps its initial width, and
// the clone, widened afterwards, owns its new rungs: both sessions
// keep matching serial SAT.
func TestSessionWidenWhileCloning(t *testing.T) {
	const m = 22
	enc := mustEnc(t, m, 11, 4)
	reg := obs.NewRegistry()
	o := NewSessionOracle(enc, SessionOptions{Obs: reg})
	ref := forcedTo(t, enc, RouteSAT)
	r := rand.New(rand.NewSource(67))
	ctx := context.Background()
	type query struct {
		entry core.LogEntry
		want  []string
	}
	queries := func(ks ...int) []query {
		out := make([]query, len(ks))
		for i, k := range ks {
			out[i].entry = core.Log(enc, core.SignalFromChanges(m, r.Perm(m)[:k]...))
			sigs, ex, err := ref.Enumerate(ctx, out[i].entry, nil, 0)
			if err != nil || !ex {
				t.Fatalf("reference k=%d: exhausted=%v err=%v", k, ex, err)
			}
			out[i].want = sigKeys(sigs)
		}
		return out
	}
	check := func(who string, sigs []core.Signal, ex bool, err error, q query) error {
		if err != nil || !ex {
			return fmt.Errorf("%s k=%d: exhausted=%v err=%v", who, q.entry.K, ex, err)
		}
		if got := sigKeys(sigs); !slices.Equal(got, q.want) {
			return fmt.Errorf("%s k=%d: %v, serial SAT %v", who, q.entry.K, got, q.want)
		}
		return nil
	}
	wide, narrow := queries(20, 19, 20), queries(1, 4, 16, 3, 16)

	pooled, release := o.acquire()
	errc := make(chan error, 1)
	go func() {
		for _, q := range wide {
			sigs, ex, err := pooled.Query(q.entry, nil, 0)
			if err := check("pooled", sigs, ex, err, q); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for _, q := range narrow { // the pool is empty: a prototype clone serves these
		sigs, ex, err := o.Enumerate(ctx, q.entry, nil, 0)
		if err := check("clone", sigs, ex, err, q); err != nil {
			t.Error(err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if w := o.proto.ladder.Width(); w != 17 {
		t.Fatalf("prototype ladder %d wide after the widen, want 17", w)
	}
	if w := pooled.ladder.Width(); w != 21 {
		t.Fatalf("pooled ladder %d wide, want 21", w)
	}
	// Widen the clone (the pool's only session) too, then re-ask the
	// first session: neither may see the other's rungs.
	for _, q := range wide {
		sigs, ex, err := o.Enumerate(ctx, q.entry, nil, 0)
		if err := check("widened clone", sigs, ex, err, q); err != nil {
			t.Fatal(err)
		}
		sigs, ex, err = pooled.Query(q.entry, nil, 0)
		if err := check("pooled again", sigs, ex, err, q); err != nil {
			t.Fatal(err)
		}
	}
	release()
	if c := reg.Snapshot().Counters; c[MetricOracleSessionClone] != 1 || c[MetricOracleSessionRetired] != 0 {
		t.Fatalf("clone=%d retired=%d, want 1/0", c[MetricOracleSessionClone], c[MetricOracleSessionRetired])
	}
}
