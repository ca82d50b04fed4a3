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
// devices append one frame each per epoch step, so in the active
// segment one key's records sit interleaved with fleetKeys-1 other
// keys' records, and a queryWindow-record window of one key there walks
// about fleetKeys times as many records as it returns. A sealed segment
// is clustered by key, so the same window there walks little more than
// it returns.
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
// fleetKeys-key store at a random key and window, the store read that
// every store-replay /v1/logs request makes. Like the benchmark's fleet,
// the store holds sealed, key-clustered segments and one partly filled
// active segment in append order. TestQueryAllocs pins its allocation
// count.
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

// TestQueryAllocs pins, for a queryWindow-record query over sealed
// segments of the fleetKeys-key store, an upper bound on the records
// walked and an allocation ceiling, the measured count plus a little
// headroom.
//
// A sealed segment is clustered by key, so the walk reads the key's own
// run only: at most sparseEvery-1 records ahead of the window (the
// sparse seek lands on the last sample at or before its first record),
// the window itself, and one record past its end. Before segments were
// clustered at seal, the same windows walked at least
// fleetKeys*(queryWindow-1) = 4,080 records.
//
// The allocation ceiling is the same for a window spanning two
// segments as for one inside a single segment: the walker allocates per
// query, per segment read and per arena chunk, never per record walked.
// Allocation counts are deterministic, so the ceiling guards the cost
// where wall clock is too noisy to. Before the walker parsed records in
// place, the same query took about 17,500 allocations, about four per
// record walked.
func TestQueryAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	st := fleetStore(t, t.TempDir(), 1024, Options{SegmentBytes: 512 << 10, Obs: reg})
	if err := st.Rotate(); err != nil { // seal the last segment too
		t.Fatal(err)
	}
	if n := st.Stats().Segments; n < 3 {
		t.Fatalf("fixture has %d sealed segment(s); want a window that can span two", n-1)
	}
	scanned := reg.Counter(MetricQueryScanned)
	for _, i := range []int{0, 300, 600, 768} {
		q := windowQuery(5, i)
		before := scanned.Value()
		if recs, err := st.Query(q); err != nil || len(recs) != queryWindow {
			t.Fatalf("window %d: %d records, err %v; want %d", i, len(recs), err, queryWindow)
		}
		// Measured: 257 to 279 records across these windows.
		if walked := scanned.Value() - before; walked > queryWindow+sparseEvery {
			t.Fatalf("window %d walked %d records; want at most %d", i, walked, queryWindow+sparseEvery)
		}
		// Measured: 16 to 19 allocations across these windows.
		if got := testing.AllocsPerRun(20, func() { _, _ = st.Query(q) }); got > 24 {
			t.Errorf("window %d: %.0f allocs, ceiling 24", i, got)
		}
	}
}

// TestQueryScannedCounter checks the walk counter: a query counts every
// record it walks, matching or not, beside the records it returns. It
// walks only the key's extent, from its first record to its last.
func TestQueryScannedCounter(t *testing.T) {
	reg := obs.NewRegistry()
	st := fleetStore(t, t.TempDir(), 2*sparseEvery, Options{Obs: reg})
	returned, scanned := reg.Counter(MetricQueryRecords), reg.Counter(MetricQueryScanned)
	check := func(layout string, wantScanned int64) {
		t.Helper()
		r0, s0 := returned.Value(), scanned.Value()
		recs, err := st.Query(AllTime(fleetDevice(0), "bus"))
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(2 * sparseEvery); returned.Value()-r0 != want || int64(len(recs)) != want {
			t.Errorf("%s: returned %d records, counted %d; want %d", layout, len(recs), returned.Value()-r0, want)
		}
		if got := scanned.Value() - s0; got != wantScanned {
			t.Errorf("%s: scanned %d records; want %d", layout, got, wantScanned)
		}
	}
	// In the active segment device 0's records are every fleetKeys-th,
	// from the segment's first record: its extent holds its own
	// 2*sparseEvery records and the other keys' records between them.
	check("active segment", int64((2*sparseEvery-1)*fleetKeys+1))
	// Sealed, the segment holds device 0's records as one run.
	if err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	check("sealed segment", int64(2*sparseEvery))
}

// TestQueryFailsClosedOnNeighbourDamage damages, after Open, records
// inside and outside the span a query walks. Every walked record is
// CRC-checked, so damage there fails the query with ErrCorrupt rather
// than being skipped as not its own; damage outside it is never read by
// the query, and the next Open finds it.
func TestQueryFailsClosedOnNeighbourDamage(t *testing.T) {
	window := func() Query {
		q := windowQuery(3, 8)
		q.To = fleetEpoch(40)
		return q
	}
	// recordAt returns the offset of device d's frame at epoch step i.
	recordAt := func(t *testing.T, path string, d, i int) int64 {
		t.Helper()
		for _, fr := range readSegment(t, path) {
			if fr.rec.Device == fleetDevice(d) && fr.rec.Epoch == fleetEpoch(i) {
				return fr.off
			}
		}
		t.Fatalf("no record of device %d at step %d in %s", d, i, path)
		return 0
	}
	t.Run("append order", func(t *testing.T) {
		dir := t.TempDir()
		st := fleetStore(t, dir, 64, Options{})
		q := window()
		if _, err := st.Query(q); err != nil {
			t.Fatalf("intact store: %v", err)
		}
		names, _, err := listSegments(dir)
		if err != nil || len(names) != 1 {
			t.Fatalf("segments %v, err %v; want one", names, err)
		}
		// Device 7's frame at epoch step 20 sits well inside device 3's
		// window in the active segment, and is never returned by it.
		flipPayloadByte(t, names[0], recordAt(t, names[0], 7, 20))
		if recs, err := st.Query(q); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("query over a damaged neighbour record: %d records, err %v; want ErrCorrupt", len(recs), err)
		}
		// A window that ends before the damage never walks it.
		q.To = fleetEpoch(12)
		if _, err := st.Query(q); err != nil {
			t.Fatalf("query short of the damage: %v", err)
		}
	})
	t.Run("key-clustered", func(t *testing.T) {
		dir := t.TempDir()
		st := fleetStore(t, dir, 64, Options{})
		if err := st.Rotate(); err != nil {
			t.Fatal(err)
		}
		q := window()
		if _, err := st.Query(q); err != nil {
			t.Fatalf("intact store: %v", err)
		}
		names, _, err := listSegments(dir)
		if err != nil || len(names) != 2 {
			t.Fatalf("segments %v, err %v; want a sealed and an active one", names, err)
		}
		sealed := names[0]
		// Sealed, device 7's records form their own run, outside device
		// 3's: the query never reads the damage.
		flipPayloadByte(t, sealed, recordAt(t, sealed, 7, 20))
		if recs, err := st.Query(q); err != nil || len(recs) != 33 {
			t.Fatalf("query beside a damaged run: %d records, err %v; want 33", len(recs), err)
		}
		// The next Open walks every record and reports the damage.
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, rec := mustOpen(t, dir, Options{})
		if !rec.Corrupt() {
			t.Fatal("Open did not report the damaged run")
		}
		for _, e := range rec.Errs {
			if !errors.Is(e, ErrCorrupt) {
				t.Fatalf("recovery error does not wrap ErrCorrupt: %v", e)
			}
		}
		if recs, err := st.Query(q); err != nil || len(recs) != 33 {
			t.Fatalf("query after recovery: %d records, err %v; want 33", len(recs), err)
		}
		// Damage inside device 3's own run, within the window, fails the
		// query closed; a window that ends before it never walks it.
		flipPayloadByte(t, sealed, recordAt(t, sealed, 3, 20))
		if recs, err := st.Query(q); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("query over a damaged record of its own run: %d records, err %v; want ErrCorrupt", len(recs), err)
		}
		q.To = fleetEpoch(12)
		if _, err := st.Query(q); err != nil {
			t.Fatalf("query short of the damage: %v", err)
		}
	})
}

// flipPayloadByte flips one bit inside the payload of the record whose
// frame starts at off, so the record fails its CRC.
func flipPayloadByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	at := off + recFrameSize + 30
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
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
