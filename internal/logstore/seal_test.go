package logstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestQueryEquivalenceProperty checks Query against a reference model
// over random multi-key appends (some with lagging epochs, which the
// store clamps, and some with repeated ones), random segment sizes,
// rotations and compactions. The store also holds one hand-built
// sealed segment in append order, the layout stores had before seals
// clustered by key, so both layouts go through the one read path.
//
// The model is the global append history: seals reorder records only
// within a segment, and compaction drops whole segments oldest-first,
// so the surviving records are exactly the history minus its first
// CompactedRecords records. A query must return the surviving records
// of its key with epoch in range, in append order, cut at Limit, with
// byte-identical bodies.
func TestQueryEquivalenceProperty(t *testing.T) {
	for seed := 0; seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)*104729 + 7))
			dir := t.TempDir()
			devices := []string{"ecu-a", "ecu-b", "ecu-c", "ecu-d", "ecu-e"}[:2+rng.Intn(4)]
			var all []Record // every record appended, in append order
			epoch := int64(1000)
			newRecord := func(i int) Record {
				epoch += int64(rng.Intn(3)) // 0 repeats the last epoch
				r := Record{
					Device: devices[rng.Intn(len(devices))], Signal: "sig",
					Epoch: epoch, TraceCycleBase: int64(i),
					Body: wireBody(t, 32, 6, 1+rng.Intn(4), int64(seed<<20|i)),
				}
				if rng.Intn(10) == 0 {
					r.Epoch -= int64(1 + rng.Intn(4)) // lagging: clamped on Append
				}
				return r
			}

			// Segment 1, sealed in append order, and an empty active
			// segment 2 after it.
			legacy := encodeSegmentHeader(1)
			for i := 0; i < 40+rng.Intn(80); i++ {
				r := newRecord(i)
				r.Epoch = epoch // a hand-built segment has no clamp to apply
				legacy = append(legacy, frameRecord(encodeRecord(r))...)
				all = append(all, r)
			}
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segmentName(2)), encodeSegmentHeader(2), 0o644); err != nil {
				t.Fatal(err)
			}
			opts := Options{SegmentBytes: int64(300 + rng.Intn(16<<10))}
			if rng.Intn(2) == 0 {
				opts.MaxSegments = 3 + rng.Intn(6)
			}
			st, rec := mustOpen(t, dir, opts)
			if rec.Corrupt() || rec.Records != len(all) {
				t.Fatalf("open: %d records, errs %v; want %d", rec.Records, rec.Errs, len(all))
			}

			check := func(st *Store, queries int) {
				t.Helper()
				live := all[st.Stats().CompactedRecords:]
				for n := 0; n < queries; n++ {
					q := AllTime(devices[rng.Intn(len(devices))], "sig")
					if rng.Intn(8) == 0 {
						q.Device = "ecu-none"
					}
					if rng.Intn(4) != 0 {
						lo, hi := all[0].Epoch-2, epoch+2
						q.From, q.To = lo+rng.Int63n(hi-lo), lo+rng.Int63n(hi-lo)
						if q.From > q.To {
							q.From, q.To = q.To, q.From
						}
					}
					if rng.Intn(2) == 0 {
						q.Limit = 1 + rng.Intn(len(live)/len(devices)+2)
					}
					var want []Record
					for _, r := range live {
						if r.Device == q.Device && r.Epoch >= q.From && r.Epoch <= q.To &&
							(q.Limit == 0 || len(want) < q.Limit) {
							want = append(want, r)
						}
					}
					got, err := st.Query(q)
					if err != nil {
						t.Fatalf("query %+v: %v", q, err)
					}
					if len(got) != len(want) {
						t.Fatalf("query %s [%d, %d] limit %d: %d records; want %d",
							q.Device, q.From, q.To, q.Limit, len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.Device != w.Device || g.Signal != w.Signal || g.Epoch != w.Epoch ||
							g.TraceCycleBase != w.TraceCycleBase || !bytes.Equal(g.Body, w.Body) {
							t.Fatalf("query %s [%d, %d] limit %d: record %d is %s@%d base %d; want %s@%d base %d",
								q.Device, q.From, q.To, q.Limit, i, g.Device, g.Epoch, g.TraceCycleBase,
								w.Device, w.Epoch, w.TraceCycleBase)
						}
					}
				}
				counts := map[string]int{}
				for _, r := range live {
					counts[r.Device]++
				}
				for _, k := range st.Keys() {
					if k.Records != counts[k.Device] {
						t.Fatalf("Keys: %s has %d records; want %d", k.Device, k.Records, counts[k.Device])
					}
				}
			}

			check(st, 8)
			steps := 300 + rng.Intn(700)
			for i := len(all); i < steps; i++ {
				switch rng.Intn(40) {
				case 0:
					if err := st.Rotate(); err != nil {
						t.Fatal(err)
					}
				case 1:
					if _, err := st.Compact(); err != nil {
						t.Fatal(err)
					}
				case 2:
					check(st, 4)
				default:
					r := newRecord(i)
					eff, err := st.Append(r)
					if err != nil {
						t.Fatal(err)
					}
					r.Epoch = eff
					all = append(all, r)
				}
			}
			check(st, 40)
			if err := st.Rotate(); err != nil {
				t.Fatal(err)
			}
			check(st, 40)
			// The hand-built segment, unless retention dropped it, was
			// read in place: seals rewrite only the segment they seal.
			if got, err := os.ReadFile(filepath.Join(dir, segmentName(1))); err == nil && !bytes.Equal(got, legacy) {
				t.Fatal("the append-order sealed segment was rewritten")
			}
			// A reopen rebuilds the same index from the files.
			compacted := st.Stats().CompactedRecords
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			all = all[compacted:]
			st, rec = mustOpen(t, dir, opts)
			if rec.Corrupt() || rec.Records != len(all) {
				t.Fatalf("reopen: %d records, errs %v; want %d", rec.Records, rec.Errs, len(all))
			}
			check(st, 40)
		})
	}
}

// TestSealFailureKeepsAppendOrder makes the seal's rewrite fail before
// its rename (a directory squats on the temp file's name): the rotation
// still succeeds, the segment stays sealed byte-for-byte in append
// order, the failure is counted, and queries over it are exact.
func TestSealFailureKeepsAppendOrder(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st := fleetStore(t, dir, 2*sparseEvery, Options{Obs: reg})
	seg := filepath.Join(dir, segmentName(1))
	before := mustRead(t, seg)
	if err := os.Mkdir(seg+sortingSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if got := reg.Counter(MetricSealUnclustered).Value(); got != 1 {
		t.Fatalf("%s = %d; want 1", MetricSealUnclustered, got)
	}
	if !bytes.Equal(mustRead(t, seg), before) {
		t.Fatal("a failed seal changed the segment")
	}
	for d := 0; d < fleetKeys; d++ {
		recs, err := st.Query(AllTime(fleetDevice(d), "bus"))
		if err != nil || len(recs) != 2*sparseEvery {
			t.Fatalf("device %d: %d records, err %v; want %d", d, len(recs), err, 2*sparseEvery)
		}
		for i, r := range recs {
			if r.Epoch != fleetEpoch(i) {
				t.Fatalf("device %d record %d: epoch %d; want %d", d, i, r.Epoch, fleetEpoch(i))
			}
		}
	}
}

// sealChildEnv carries the store directory to TestSealKill9's child
// process, which is this test binary run again.
const sealChildEnv = "LOGSTORE_SEAL_KILL_DIR"

// killKeys and killSegmentBytes shape the child's store: small segments
// of a few interleaved keys, so it seals every few dozen appends.
const (
	killKeys         = 4
	killSegmentBytes = 4 << 10
)

// killRecord is the child's i-th append; the parent rebuilds it to
// check what survived.
func killRecord(t testing.TB, i int) Record {
	return Record{
		Device: fmt.Sprintf("dev-%d", i%killKeys), Signal: "sig",
		Epoch: int64(i), TraceCycleBase: int64(16 * i),
		Body: wireBody(t, 32, 6, 2, int64(i)),
	}
}

// TestSealKill9 kills a process that is appending to a store, with
// SIGKILL, at several delays after its fifth seal, and checks what a
// reopen finds. The child is this test binary run again: it appends to
// killKeys keys, fsyncing as in production, and prints each
// acknowledged record's index and the store's rotation count. After
// each kill, every acknowledged record must be present exactly once,
// in per-key append order and byte-identical; no seal temp file may
// remain; and recovery may report no damage other than to the active
// segment's tail.
func TestSealKill9(t *testing.T) {
	if dir := os.Getenv(sealChildEnv); dir != "" {
		runKillChild(t, dir)
		return
	}
	if testing.Short() {
		t.Skip("kill-9 leg skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, delay := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 7 * time.Millisecond, 15 * time.Millisecond, 31 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(exe, "-test.run=^TestSealKill9$", "-test.timeout=60s")
			cmd.Env = append(os.Environ(), sealChildEnv+"="+dir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			out := bufio.NewReader(stdout)
			acked := -1 // the highest acknowledged record index
			seals := int64(0)
			// ack reads one complete line; a line cut by the kill is
			// not an acknowledgement.
			ack := func() bool {
				line, err := out.ReadString('\n')
				if err != nil {
					return false
				}
				var i int
				if _, err := fmt.Sscanf(line, "ack %d %d", &i, &seals); err != nil {
					return true // test framework output
				}
				if i != acked+1 {
					t.Errorf("child acknowledged record %d after %d", i, acked)
				}
				acked = i
				return true
			}
			for seals < 5 {
				if !ack() {
					cmd.Wait()
					t.Fatalf("child exited after %d seal(s), %d acknowledged record(s)", seals, acked+1)
				}
			}
			time.Sleep(delay)
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			for ack() {
			}
			cmd.Wait()
			midSeal, _ := filepath.Glob(filepath.Join(dir, "*"+sortingSuffix))
			t.Logf("killed after %d seal(s), %d acknowledged record(s), %d seal temp file(s) left",
				seals, acked+1, len(midSeal))

			names, _, err := listSegments(dir)
			if err != nil || len(names) == 0 {
				t.Fatalf("segments %v, err %v", names, err)
			}
			active := filepath.Base(names[len(names)-1])
			st, rec := mustOpen(t, dir, Options{SegmentBytes: killSegmentBytes})
			for _, e := range rec.Errs {
				if !errors.Is(e, ErrCorrupt) || !strings.Contains(e.Error(), active) {
					t.Errorf("recovery reports damage beyond the active segment %s: %v", active, e)
				}
			}
			if stale, _ := filepath.Glob(filepath.Join(dir, "*"+sortingSuffix)); len(stale) > 0 {
				t.Errorf("Open left seal temp files: %v", stale)
			}
			// Each key holds its acknowledged records, then at most the
			// one append the kill interrupted.
			extra := 0
			for d := 0; d < killKeys; d++ {
				recs, err := st.Query(AllTime(fmt.Sprintf("dev-%d", d), "sig"))
				if err != nil {
					t.Fatal(err)
				}
				next := d
				for _, r := range recs {
					if r.Epoch != int64(next) {
						t.Fatalf("dev-%d: record %d where %d was due", d, r.Epoch, next)
					}
					want := killRecord(t, next)
					if r.TraceCycleBase != want.TraceCycleBase || !bytes.Equal(r.Body, want.Body) {
						t.Fatalf("dev-%d: record %d differs from what was appended", d, next)
					}
					if next > acked {
						extra++
					}
					next += killKeys
				}
				if next <= acked {
					t.Fatalf("dev-%d: acknowledged record %d is missing", d, next)
				}
			}
			if extra > 1 {
				t.Fatalf("%d unacknowledged records survived; at most the interrupted append may", extra)
			}
		})
	}
}

// runKillChild is TestSealKill9's child: it appends until killed,
// printing one line per acknowledged record. It stops on its own after
// a bound far past any kill, or when its output pipe closes.
func runKillChild(t *testing.T, dir string) {
	st, _, err := Open(dir, Options{SegmentBytes: killSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 200_000; i++ {
		if _, err := st.Append(killRecord(t, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Printf("ack %d %d\n", i, st.Stats().Rotations); err != nil {
			return
		}
	}
}

// BenchmarkStoreSeal measures one rotation of a 1 MiB active segment
// holding fleetKeys keys' records in append order: reading it back,
// grouping it by key into a temp file, the rename and the index swap,
// and creating the next segment. Every fsync is off (NoSync), so the
// row guards the store's own work, not the disk's.
func BenchmarkStoreSeal(b *testing.B) {
	src := b.TempDir()
	st, _ := mustOpen(b, src, Options{SegmentBytes: 4 << 20})
	for i := 0; st.Stats().Bytes < 1<<20; i++ {
		for d := 0; d < fleetKeys; d++ {
			if _, err := st.Append(Record{
				Device: fleetDevice(d), Signal: "bus",
				Epoch: fleetEpoch(i), TraceCycleBase: int64(i * 16),
				Body: wireBody(b, 128, 16, 16, int64(d<<20|i)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(src, segmentName(1)))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		os.Remove(filepath.Join(dir, segmentName(2)))
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			b.Fatal(err)
		}
		st, _, err := Open(dir, Options{SegmentBytes: 4 << 20, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := st.Rotate(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
