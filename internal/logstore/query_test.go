package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/obs"
)

// The query fixtures mirror the benchmark's fleet store: fleetKeys
// devices append one frame each per epoch step, so one key's records
// sit interleaved with fleetKeys-1 other keys' records on disk, and a
// queryWindow-record window of one key walks about fleetKeys times as
// many records as it returns.
const (
	fleetKeys   = 16
	queryWindow = 256
)

func fleetDevice(d int) string { return fmt.Sprintf("ecu-%02d", d) }

func fleetEpoch(i int) int64 { return 1_000_000 + int64(i)*1000 }

// fleetStore opens a store in dir holding frames records of each of
// fleetKeys keys, appended interleaved, with the benchmark's frame
// geometry (m=128, b=16, 16 entries per frame).
func fleetStore(tb testing.TB, dir string, frames int, opts Options) *Store {
	tb.Helper()
	st, _ := mustOpen(tb, dir, opts)
	for i := 0; i < frames; i++ {
		for d := 0; d < fleetKeys; d++ {
			if _, err := st.Append(Record{
				Device: fleetDevice(d), Signal: "bus",
				Epoch: fleetEpoch(i), TraceCycleBase: int64(i * 16),
				Body: wireBody(tb, 128, 16, 16, int64(d*frames+i)),
			}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return st
}

// windowQuery selects records [i, i+queryWindow) of device d.
func windowQuery(d, i int) Query {
	return Query{Device: fleetDevice(d), Signal: "bus", From: fleetEpoch(i), To: fleetEpoch(i + queryWindow - 1)}
}

// BenchmarkStoreQuery measures one queryWindow-record Query over a
// fleetKeys-key interleaved store at a random key and window, the
// store read that every store-replay /v1/logs request makes.
// TestQueryAllocs pins its allocation count.
func BenchmarkStoreQuery(b *testing.B) {
	const frames = 2000
	st := fleetStore(b, b.TempDir(), frames, Options{})
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := st.Query(windowQuery(rng.Intn(fleetKeys), rng.Intn(frames-queryWindow+1)))
		if err != nil || len(recs) != queryWindow {
			b.Fatalf("query: %d records, err %v; want %d", len(recs), err, queryWindow)
		}
	}
}

// TestQueryAllocs pins an allocation ceiling, the measured count plus a
// little headroom, for a queryWindow-record query over the fleetKeys-key
// store. The ceiling is the same for a window spanning two segments as
// for one inside a single segment: the walker allocates per query, per
// segment read and per arena chunk, never per record walked. Allocation
// counts are deterministic, so the ceiling guards the cost where wall
// clock is too noisy to. Before the walker parsed records in place, the
// same query took about 17,500 allocations, about four per record
// walked.
func TestQueryAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	st := fleetStore(t, t.TempDir(), 1024, Options{SegmentBytes: 512 << 10, Obs: reg})
	if n := st.Stats().Segments; n < 2 {
		t.Fatalf("fixture has %d segment(s); want a window that can span two", n)
	}
	scanned := reg.Counter(MetricQueryScanned)
	for _, i := range []int{0, 300, 600, 768} {
		q := windowQuery(5, i)
		before := scanned.Value()
		if recs, err := st.Query(q); err != nil || len(recs) != queryWindow {
			t.Fatalf("window %d: %d records, err %v; want %d", i, len(recs), err, queryWindow)
		}
		if walked := scanned.Value() - before; walked < fleetKeys*(queryWindow-1) {
			t.Fatalf("window %d walked %d records; want at least %d", i, walked, fleetKeys*(queryWindow-1))
		}
		// Measured: 16 to 19 allocations across these windows.
		if got := testing.AllocsPerRun(20, func() { _, _ = st.Query(q) }); got > 24 {
			t.Errorf("window %d: %.0f allocs, ceiling 24", i, got)
		}
	}
}

// TestQueryScannedCounter checks the walk counter: a query counts every
// record it walks, matching or not, beside the records it returns.
func TestQueryScannedCounter(t *testing.T) {
	reg := obs.NewRegistry()
	st := fleetStore(t, t.TempDir(), 2*sparseEvery, Options{Obs: reg})
	// An unbounded query walks the whole segment: the sparse seek has
	// no sample below From, and no epoch is past To.
	recs, err := st.Query(AllTime(fleetDevice(0), "bus"))
	if err != nil {
		t.Fatal(err)
	}
	returned, scanned := reg.Counter(MetricQueryRecords).Value(), reg.Counter(MetricQueryScanned).Value()
	if want := int64(2 * sparseEvery); returned != want || int64(len(recs)) != want {
		t.Errorf("returned %d records, counted %d; want %d", len(recs), returned, want)
	}
	if want := int64(2 * sparseEvery * fleetKeys); scanned != want {
		t.Errorf("scanned %d records; want %d", scanned, want)
	}
}

// TestQueryFailsClosedOnNeighbourDamage damages, after Open, one record
// of another key inside the span a query walks. The query must fail
// with ErrCorrupt rather than skip the record as not its own: every
// walked record is CRC-checked.
func TestQueryFailsClosedOnNeighbourDamage(t *testing.T) {
	dir := t.TempDir()
	st := fleetStore(t, dir, 64, Options{})
	q := windowQuery(3, 8)
	q.To = fleetEpoch(40)
	if _, err := st.Query(q); err != nil {
		t.Fatalf("intact store: %v", err)
	}
	names, _, err := listSegments(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments %v, err %v; want one", names, err)
	}
	// Record 20*fleetKeys+7 is device 7's frame at epoch step 20: well
	// inside device 3's window, and never returned by it.
	offs, _ := walkSegmentFile(t, names[0])
	f, err := os.OpenFile(names[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	at := offs[20*fleetKeys+7] + recFrameSize + 30 // inside the payload
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	if recs, err := st.Query(q); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("query over a damaged neighbour record: %d records, err %v; want ErrCorrupt", len(recs), err)
	}
	// A window that ends before the damage never walks it.
	q.To = fleetEpoch(12)
	if _, err := st.Query(q); err != nil {
		t.Fatalf("query short of the damage: %v", err)
	}
}

// TestQueryBodiesIndependent checks that returned bodies are copies:
// writing into one, or appending to it, changes neither its neighbours
// nor what a later query returns.
func TestQueryBodiesIndependent(t *testing.T) {
	st := fleetStore(t, t.TempDir(), 64, Options{})
	q := windowQuery(2, 0)
	q.To = fleetEpoch(63)
	first, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(first))
	for i, r := range first {
		want[i] = append([]byte(nil), r.Body...)
	}
	for i := 0; i+1 < len(first); i += 2 {
		for j := range first[i].Body {
			first[i].Body[j] ^= 0xff
		}
		first[i].Body = append(first[i].Body, 0xee, 0xee, 0xee)
	}
	for i := 1; i < len(first); i += 2 {
		if !bytes.Equal(first[i].Body, want[i]) {
			t.Fatalf("record %d changed when its neighbour was written", i)
		}
	}
	again, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(want) {
		t.Fatalf("second query: %d records; want %d", len(again), len(want))
	}
	for i, r := range again {
		if !bytes.Equal(r.Body, want[i]) {
			t.Fatalf("record %d of a later query changed when an earlier result was written", i)
		}
		if r.Device != q.Device || r.Signal != q.Signal || r.Epoch != fleetEpoch(i) {
			t.Fatalf("record %d: %s/%s@%d; want %s/%s@%d", i, r.Device, r.Signal, r.Epoch, q.Device, q.Signal, fleetEpoch(i))
		}
	}
}
