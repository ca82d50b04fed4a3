package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/obs"
)

func TestAdmissionBoundsQueueExactly(t *testing.T) {
	reg := obs.NewRegistry()
	a := newAdmission(2, 1, reg) // 1 worker, 2 may wait

	release1, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Two waiters fit; the third must shed synchronously.
	type got struct {
		release func()
		err     error
	}
	waiters := make(chan got, 2)
	var started sync.WaitGroup
	for i := 0; i < 2; i++ {
		started.Add(1)
		go func() {
			started.Done()
			r, err := a.acquire(context.Background())
			waiters <- got{r, err}
		}()
	}
	started.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for a.waiting.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("waiting = %d, want 2", a.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := a.acquire(context.Background()); !errors.Is(err, errQueueFull) {
		t.Fatalf("overflow acquire: err = %v, want errQueueFull", err)
	}
	if got := reg.Snapshot().Counters[MetricShed]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricShed, got)
	}

	// Releasing the worker lets the waiters through one at a time.
	release1()
	g := <-waiters
	if g.err != nil {
		t.Fatal(g.err)
	}
	g.release()
	g = <-waiters
	if g.err != nil {
		t.Fatal(g.err)
	}
	g.release()

	snap := reg.Snapshot()
	if q := snap.Gauges[MetricQueueDepth]; q.Value != 0 {
		t.Fatalf("queue gauge = %d after drain, want 0", q.Value)
	}
	if b := snap.Gauges[MetricSolveBusy]; b.Value != 0 {
		t.Fatalf("busy gauge = %d after drain, want 0", b.Value)
	}
}

func TestAdmissionHonorsContextWhileQueued(t *testing.T) {
	a := newAdmission(4, 1, nil)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire: err = %v, want DeadlineExceeded", err)
	}
	if w := a.waiting.Load(); w != 0 {
		t.Fatalf("waiting = %d after queued acquire expired, want 0", w)
	}
}

func TestLRUCacheEvictsAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	c := newLRUCache(2, reg)
	c.add("a", solveResult{Count: 1})
	c.add("b", solveResult{Count: 2})
	if _, ok := c.get("a"); !ok { // bump a: b is now LRU
		t.Fatal("a missing")
	}
	c.add("c", solveResult{Count: 3}) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if res, ok := c.get("a"); !ok || res.Count != 1 {
		t.Fatalf("a = (%v, %v)", res, ok)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricCacheHits] != 2 || snap.Counters[MetricCacheMisses] != 1 || snap.Counters[MetricCacheEvicted] != 1 {
		t.Fatalf("hits/misses/evicted = %d/%d/%d, want 2/1/1",
			snap.Counters[MetricCacheHits], snap.Counters[MetricCacheMisses], snap.Counters[MetricCacheEvicted])
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	var runs atomic.Int32
	fn := func() (solveResult, error) {
		runs.Add(1)
		<-gate
		return solveResult{Count: 7}, nil
	}

	const followers = 8
	type got struct {
		res    solveResult
		shared bool
		err    error
	}
	results := make(chan got, followers+1)
	run := func() {
		res, shared, err := g.do(context.Background(), "k", fn)
		results <- got{res, shared, err}
	}
	go run()
	// Wait for the leader to register, then pile on followers and give
	// them time to block on the in-flight call before releasing it.
	for {
		g.mu.Lock()
		_, inFlight := g.calls["k"]
		g.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < followers; i++ {
		go run()
	}
	time.Sleep(100 * time.Millisecond)
	close(gate)

	var sharedCount int
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.res.Count != 7 {
			t.Fatalf("res = %v", r.res)
		}
		if r.shared {
			sharedCount++
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want 1", n, followers+1)
	}
	if sharedCount != followers {
		t.Fatalf("shared = %d, want %d", sharedCount, followers)
	}
}

func TestFlightGroupFollowerDeadline(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = g.do(context.Background(), "k", func() (solveResult, error) {
			<-gate
			return solveResult{}, nil
		})
	}()
	for {
		g.mu.Lock()
		_, inFlight := g.calls["k"]
		g.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, shared, err := g.do(ctx, "k", func() (solveResult, error) {
		t.Error("follower must not run fn")
		return solveResult{}, nil
	})
	if !shared || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower: shared=%v err=%v, want shared deadline error", shared, err)
	}
	close(gate) // the leader's solve was unaffected
	<-leaderDone
}

func TestEncodingSpecNormalize(t *testing.T) {
	cases := []struct {
		in      EncodingSpec
		wantErr bool
		check   func(EncodingSpec) error
	}{
		{in: EncodingSpec{M: 16, B: 9}, check: func(sp EncodingSpec) error {
			if sp.Scheme != "incremental" || sp.Depth != 4 {
				return fmt.Errorf("defaults not applied: %+v", sp)
			}
			return nil
		}},
		{in: EncodingSpec{Scheme: "binary", M: 20}, check: func(sp EncodingSpec) error {
			if sp.B != 5 { // bits.Len(20) = 5
				return fmt.Errorf("binary b = %d, want 5", sp.B)
			}
			return nil
		}},
		{in: EncodingSpec{Scheme: "one-hot", M: 6}, check: func(sp EncodingSpec) error {
			if sp.Scheme != "onehot" || sp.B != 6 {
				return fmt.Errorf("onehot: %+v", sp)
			}
			return nil
		}},
		{in: EncodingSpec{Scheme: "explicit", Timestamps: []string{"101", "011"}}, check: func(sp EncodingSpec) error {
			if sp.M != 2 || sp.B != 3 {
				return fmt.Errorf("explicit m,b = %d,%d, want 2,3", sp.M, sp.B)
			}
			return nil
		}},
		{in: EncodingSpec{Scheme: "random-constrained", M: 16, B: 9, Seed: 3}, check: func(sp EncodingSpec) error {
			if sp.Scheme != "random" {
				return fmt.Errorf("alias not folded: %q", sp.Scheme)
			}
			return nil
		}},
		{in: EncodingSpec{Scheme: "nonsense", M: 4, B: 4}, wantErr: true},
		{in: EncodingSpec{Scheme: "incremental"}, wantErr: true},    // no m/b
		{in: EncodingSpec{Scheme: "explicit"}, wantErr: true},       // no timestamps
		{in: EncodingSpec{M: 16, B: 9, ClockHz: -1}, wantErr: true}, // negative clock
		{in: EncodingSpec{Scheme: "binary"}, wantErr: true},         // no m
	}
	for i, tc := range cases {
		got, err := tc.in.normalize()
		if tc.wantErr {
			if err == nil {
				t.Fatalf("case %d: no error for %+v", i, tc.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if tc.check != nil {
			if err := tc.check(got); err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
		}
	}
}

func TestSessionTableSharesAndEvicts(t *testing.T) {
	reg := obs.NewRegistry()
	tbl := newSessionTable(2, reg)
	spec := func(m int) EncodingSpec {
		sp, err := EncodingSpec{M: m, B: 9}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	a1 := tbl.get(spec(12))
	a2 := tbl.get(spec(12))
	if a1 != a2 {
		t.Fatal("identical specs got distinct sessions")
	}
	tbl.get(spec(13))
	tbl.get(spec(14)) // evicts spec(12), the LRU
	if got := reg.Snapshot().Gauges[MetricSessions]; got.Value != 2 {
		t.Fatalf("sessions gauge = %d, want 2", got.Value)
	}
	if a3 := tbl.get(spec(12)); a3 == a1 {
		t.Fatal("evicted session resurrected instead of rebuilt")
	}
}

func TestCacheKeySeparatesQueries(t *testing.T) {
	entry := core.LogEntry{TP: bitvec.FromUint(0b1011, 9), K: 2}
	base := cacheKey("sess", entry, "", 16, false)
	for name, other := range map[string]string{
		"different session": cacheKey("sess2", entry, "", 16, false),
		"different k":       cacheKey("sess", core.LogEntry{TP: entry.TP, K: 3}, "", 16, false),
		"different props":   cacheKey("sess", entry, "mingap(3)", 16, false),
		"different limit":   cacheKey("sess", entry, "", 17, false),
		"count vs enum":     cacheKey("sess", entry, "", 16, true),
	} {
		if other == base {
			t.Fatalf("%s: cache keys collide", name)
		}
	}
	if again := cacheKey("sess", entry, "", 16, false); again != base {
		t.Fatal("cache key not deterministic")
	}
}

// TestCacheKeyPreimagePinned pins cacheKey to the fmt-built preimage
// it has always hashed, so the cache and singleflight identity of every
// query stays the same: random session keys (long explicit ones too),
// TP widths across word edges, k, properties, limits and both modes.
func TestCacheKeyPreimagePinned(t *testing.T) {
	ref := func(sessKey string, entry core.LogEntry, propKey string, limit int, countOnly bool) string {
		h := sha256.New()
		fmt.Fprintf(h, "%s|tp=%s|k=%d|props=%s|limit=%d|count=%t", sessKey, entry.TP.Key(), entry.K, propKey, limit, countOnly)
		return hex.EncodeToString(h.Sum(nil))
	}
	r := rand.New(rand.NewSource(3))
	sp := EncodingSpec{Scheme: "incremental", M: 128, B: 16, Depth: 4, ClockHz: 1.5e8, Epoch: 0.25}
	long := EncodingSpec{Scheme: "explicit", M: 40, B: 70}
	for i := 0; i < long.M; i++ {
		long.Timestamps = append(long.Timestamps, strings.Repeat("01", 35))
	}
	for trial := 0; trial < 200; trial++ {
		sessKey := sp.key()
		if trial%3 == 0 {
			sessKey = long.key()
		}
		width := []int{1, 16, 63, 64, 65, 200}[r.Intn(6)]
		tp := bitvec.New(width)
		for i := 0; i < width; i++ {
			tp.Set(i, r.Intn(2) == 1)
		}
		entry := core.LogEntry{TP: tp, K: r.Intn(40)}
		props := []string{"", "mingap(3)", "mingap(3); dk(32,3)"}[r.Intn(3)]
		limit := []int{-1, 16, 4096, r.Intn(1 << 20)}[r.Intn(4)]
		countOnly := r.Intn(2) == 1
		if got, want := cacheKey(sessKey, entry, props, limit, countOnly), ref(sessKey, entry, props, limit, countOnly); got != want {
			t.Fatalf("trial %d: cacheKey %s, want %s", trial, got, want)
		}
	}
}

func TestTimeoutResolution(t *testing.T) {
	s := New(Config{DefaultTimeout: 2 * time.Second, MaxTimeout: 5 * time.Second})
	if d := s.timeout(0); d != 2*time.Second {
		t.Fatalf("default = %v", d)
	}
	if d := s.timeout(1000); d != time.Second {
		t.Fatalf("requested = %v", d)
	}
	if d := s.timeout(60_000); d != 5*time.Second {
		t.Fatalf("cap = %v", d)
	}
}
