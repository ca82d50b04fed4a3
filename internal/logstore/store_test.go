package logstore

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/obs"
)

// wireBody renders a valid core.WriteLog frame with n deterministic
// entries derived from seed, so stored bodies are both structurally
// valid and distinguishable byte-for-byte.
func wireBody(t testing.TB, m, b, n int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]core.LogEntry, n)
	for i := range entries {
		tp := bitvec.New(b)
		for j := 0; j < b; j++ {
			if rng.Intn(2) == 1 {
				tp.Set(j, true)
			}
		}
		entries[i] = core.LogEntry{TP: tp, K: rng.Intn(m + 1)}
	}
	var buf bytes.Buffer
	if err := core.WriteLog(&buf, m, b, entries); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	return buf.Bytes()
}

func mustOpen(t testing.TB, dir string, opts Options) (*Store, *Recovery) {
	t.Helper()
	opts.NoSync = true
	st, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st, rec
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, rec := mustOpen(t, dir, Options{})
	if rec.Corrupt() {
		t.Fatalf("fresh store reports corruption: %v", rec.Errs)
	}
	want := make([]Record, 0, 20)
	for i := 0; i < 20; i++ {
		r := Record{
			Device:         fmt.Sprintf("ecu-%d", i%3),
			Signal:         "clk_en",
			Epoch:          int64(1000 + i),
			TraceCycleBase: int64(i * 64),
			Body:           wireBody(t, 64, 8, 4, int64(i)),
		}
		if _, err := st.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want = append(want, r)
	}
	for dev := 0; dev < 3; dev++ {
		device := fmt.Sprintf("ecu-%d", dev)
		got, err := st.Query(AllTime(device, "clk_en"))
		if err != nil {
			t.Fatalf("Query %s: %v", device, err)
		}
		i := 0
		for _, w := range want {
			if w.Device != device {
				continue
			}
			if i >= len(got) {
				t.Fatalf("%s: missing record %d", device, i)
			}
			g := got[i]
			if g.Epoch != w.Epoch || g.TraceCycleBase != w.TraceCycleBase || !bytes.Equal(g.Body, w.Body) {
				t.Fatalf("%s record %d mismatch: got epoch=%d tcb=%d, want epoch=%d tcb=%d (bodies equal: %v)",
					device, i, g.Epoch, g.TraceCycleBase, w.Epoch, w.TraceCycleBase, bytes.Equal(g.Body, w.Body))
			}
			i++
		}
		if i != len(got) {
			t.Fatalf("%s: %d extra record(s)", device, len(got)-i)
		}
	}
	// Range filtering is inclusive on both ends.
	got, err := st.Query(Query{Device: "ecu-0", Signal: "clk_en", From: 1003, To: 1009})
	if err != nil {
		t.Fatalf("range query: %v", err)
	}
	for _, g := range got {
		if g.Epoch < 1003 || g.Epoch > 1009 {
			t.Fatalf("range query returned epoch %d outside [1003, 1009]", g.Epoch)
		}
	}
	if len(got) != 3 { // epochs 1003, 1006, 1009 belong to ecu-0
		t.Fatalf("range query returned %d records, want 3", len(got))
	}
}

func TestStoreValidation(t *testing.T) {
	st, _ := mustOpen(t, t.TempDir(), Options{})
	body := wireBody(t, 64, 8, 2, 1)
	cases := []struct {
		name string
		rec  Record
	}{
		{"empty device", Record{Device: "", Signal: "s", Body: body}},
		{"empty signal", Record{Device: "d", Signal: "", Body: body}},
		{"empty body", Record{Device: "d", Signal: "s", Body: nil}},
		{"non-wire body", Record{Device: "d", Signal: "s", Body: []byte("not a log at all")}},
		{"truncated header", Record{Device: "d", Signal: "s", Body: body[:8]}},
	}
	for _, tc := range cases {
		if _, err := st.Append(tc.rec); err == nil {
			t.Errorf("%s: Append accepted an invalid record", tc.name)
		}
	}
	if _, err := st.Query(Query{Device: "d", Signal: "s", From: 10, To: 5}); err == nil {
		t.Error("Query accepted an inverted range")
	}
}

func TestStoreMonotoneEpochClamp(t *testing.T) {
	st, _ := mustOpen(t, t.TempDir(), Options{})
	body := wireBody(t, 64, 8, 2, 1)
	if _, err := st.Append(Record{Device: "d", Signal: "s", Epoch: 100, Body: body}); err != nil {
		t.Fatal(err)
	}
	eff, err := st.Append(Record{Device: "d", Signal: "s", Epoch: 50, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if eff != 100 {
		t.Fatalf("lagging epoch clamped to %d, want 100", eff)
	}
	// Other keys are unaffected by the clamp.
	eff, err = st.Append(Record{Device: "d2", Signal: "s", Epoch: 50, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if eff != 50 {
		t.Fatalf("fresh key clamped to %d, want 50", eff)
	}
}

func TestStoreReopenPersists(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{SegmentBytes: 512})
	var want [][]byte
	for i := 0; i < 40; i++ {
		body := wireBody(t, 64, 8, 3, int64(i))
		want = append(want, body)
		if _, err := st.Append(Record{Device: "d", Signal: "s", Epoch: int64(i), Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec := mustOpen(t, dir, Options{SegmentBytes: 512})
	if rec.Corrupt() {
		t.Fatalf("clean reopen reports corruption: %v", rec.Errs)
	}
	if rec.Records != 40 {
		t.Fatalf("reopen indexed %d records, want 40", rec.Records)
	}
	got, err := st2.Query(AllTime("d", "s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopen query returned %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Body, want[i]) {
			t.Fatalf("record %d body differs after reopen", i)
		}
	}
	// Appends continue where the store left off.
	if _, err := st2.Append(Record{Device: "d", Signal: "s", Epoch: 99, Body: want[0]}); err != nil {
		t.Fatalf("post-reopen append: %v", err)
	}
}

// fillSegments appends records, round-robin over devices (all on
// signal "sig", epochs increasing across devices), until the store has
// at least nSegs segments, returning every appended record in order.
func fillSegments(t *testing.T, st *Store, nSegs int, devices ...string) []Record {
	t.Helper()
	var out []Record
	for i := 0; st.Stats().Segments < nSegs; i++ {
		r := Record{
			Device: devices[i%len(devices)], Signal: "sig",
			Epoch:          int64(1000 + i),
			TraceCycleBase: int64(i * 16),
			Body:           wireBody(t, 64, 8, 2, int64(i)),
		}
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
		if i > 10000 {
			t.Fatal("fillSegments never rotated; SegmentBytes too large?")
		}
	}
	return out
}

// segFrame is one record of a segment file: its frame offset, its raw
// frame bytes and the record it decodes to.
type segFrame struct {
	off int64
	raw []byte
	rec Record
}

// readSegment reads every record of one intact segment file in file
// order.
func readSegment(t *testing.T, path string) []segFrame {
	t.Helper()
	data := mustRead(t, path)
	if _, err := readSegmentHeader(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	w := newWalker(bytes.NewReader(data[segHeaderSize:]), segHeaderSize, int64(len(data)), 16<<20)
	defer w.release()
	var out []segFrame
	for {
		v, err := w.next()
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			return out
		}
		out = append(out, segFrame{off: v.off, raw: data[v.off:w.off], rec: Record{
			Device: string(v.device), Signal: string(v.signal),
			Epoch: v.epoch, TraceCycleBase: v.base,
			Body: append([]byte(nil), v.body...),
		}})
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// countSegmentRecords walks one segment file and returns its record
// count (the file must be intact).
func countSegmentRecords(t *testing.T, path string) int {
	t.Helper()
	return len(readSegment(t, path))
}

// segmentLayout renders the segment file at path with its records in
// append order (clustered false; the fixtures' epochs increase across
// keys, so epoch order is append order) or grouped by key (clustered
// true, as a seal writes it).
func segmentLayout(t *testing.T, path string, clustered bool) []byte {
	t.Helper()
	frames := readSegment(t, path)
	slices.SortStableFunc(frames, func(a, b segFrame) int {
		if clustered {
			return bytes.Compare(keyBytes(a.rec.Device, a.rec.Signal), keyBytes(b.rec.Device, b.rec.Signal))
		}
		return cmp.Compare(a.rec.Epoch, b.rec.Epoch)
	})
	out := append([]byte(nil), mustRead(t, path)[:segHeaderSize]...)
	for _, fr := range frames {
		out = append(out, fr.raw...)
	}
	return out
}

// TestCrashRecoveryMatrix is the injected-failure matrix: for each kind
// of damage, open-time recovery must salvage every intact record,
// report the damage as an error wrapping ErrCorrupt, delete any seal
// temp file, and accept a post-recovery append (and rotation) that
// round-trips. The fixture interleaves three keys, so its sealed
// segments are clustered by key and its active segment is not.
func TestCrashRecoveryMatrix(t *testing.T) {
	devices := []string{"ecu-a", "ecu-b", "ecu-c"}
	type outcome struct {
		names   []string // segment files, sorted
		lastOff int64    // size of the last segment file
	}
	prepare := func(t *testing.T) (string, []Record, outcome) {
		dir := t.TempDir()
		st, _ := mustOpen(t, dir, Options{SegmentBytes: 400})
		recs := fillSegments(t, st, 3, devices...)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		names, _, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(names[len(names)-1])
		if err != nil {
			t.Fatal(err)
		}
		return dir, recs, outcome{names: names, lastOff: fi.Size()}
	}

	cases := []struct {
		name string
		// damage mutates the store files and returns how many trailing
		// records of the full history become unreachable.
		damage     func(t *testing.T, dir string, o outcome) int
		wantErrs   bool
		duplicated bool // duplicate-epoch case: extra surviving record
	}{
		{
			name: "torn final record",
			damage: func(t *testing.T, dir string, o outcome) int {
				last := o.names[len(o.names)-1]
				// Chop into the middle of the final record's payload.
				if err := os.Truncate(last, o.lastOff-11); err != nil {
					t.Fatal(err)
				}
				return 1
			},
			wantErrs: true,
		},
		{
			name: "truncated CRC",
			damage: func(t *testing.T, dir string, o outcome) int {
				last := o.names[len(o.names)-1]
				fi, err := os.Stat(last)
				if err != nil {
					t.Fatal(err)
				}
				// Find the final record's frame start by re-walking.
				frames := readSegment(t, last)
				lastFrame := frames[len(frames)-1].off
				// Keep the length field, cut inside the CRC field.
				if lastFrame+6 >= fi.Size() {
					t.Fatal("segment too small for CRC cut")
				}
				if err := os.Truncate(last, lastFrame+6); err != nil {
					t.Fatal(err)
				}
				return 1
			},
			wantErrs: true,
		},
		{
			name: "zero-filled tail",
			damage: func(t *testing.T, dir string, o outcome) int {
				last := o.names[len(o.names)-1]
				f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
				f.Close()
				return 0 // all real records survive; only the zeros drop
			},
			wantErrs: true,
		},
		{
			name: "missing segment in sequence",
			damage: func(t *testing.T, dir string, o outcome) int {
				// Remove the middle segment; count its records first.
				mid := o.names[len(o.names)/2]
				lost := countSegmentRecords(t, mid)
				if err := os.Remove(mid); err != nil {
					t.Fatal(err)
				}
				return lost
			},
			wantErrs: true,
		},
		{
			// A torn header on the highest-sequence segment must not
			// leave the file squatting on its sequence number: segment
			// creation is O_CREATE|O_EXCL, so recovery quarantines the
			// file or every post-recovery rotation would die on "file
			// exists" once the active segment fills.
			name: "torn header on last segment",
			damage: func(t *testing.T, dir string, o outcome) int {
				last := o.names[len(o.names)-1]
				lost := countSegmentRecords(t, last)
				f, err := os.OpenFile(last, os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, 0); err != nil {
					t.Fatal(err)
				}
				f.Close()
				return lost
			},
			wantErrs: true,
		},
		{
			name: "duplicate epoch",
			damage: func(t *testing.T, dir string, o outcome) int {
				// Append a byte-exact copy of the final record: structurally
				// valid, semantically a replay. The store must keep serving
				// (duplicates are data, not damage).
				last := o.names[len(o.names)-1]
				frames := readSegment(t, last)
				dup := frames[len(frames)-1].raw
				w, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Write(dup); err != nil {
					t.Fatal(err)
				}
				w.Close()
				return -1 // one EXTRA record survives
			},
			wantErrs:   false,
			duplicated: true,
		},
		{
			// A crash between writing (and fsyncing) a seal's sorted
			// temp file and renaming it: the append-order segment is
			// authoritative and the temp file is stale.
			name: "sort file complete, not renamed",
			damage: func(t *testing.T, dir string, o outcome) int {
				crashBeforeRename(t, o.names[0], func(n int) int { return n })
				return 0
			},
		},
		{
			name: "sort file torn",
			damage: func(t *testing.T, dir string, o outcome) int {
				crashBeforeRename(t, o.names[0], func(n int) int { return n/2 + 3 })
				return 0
			},
		},
		{
			// A crash after a seal's rename, before the next segment
			// was created: the highest segment is the one the seal
			// clustered, and it resumes as the append target. The
			// records of the fixture's last segment were never
			// appended in that history.
			name: "sort file renamed, next segment not created",
			damage: func(t *testing.T, dir string, o outcome) int {
				last, sealed := o.names[len(o.names)-1], o.names[len(o.names)-2]
				if bytes.Equal(segmentLayout(t, sealed, true), segmentLayout(t, sealed, false)) {
					t.Fatalf("%s: clustering does not reorder the fixture", sealed)
				}
				if !bytes.Equal(segmentLayout(t, sealed, true), mustRead(t, sealed)) {
					t.Fatalf("%s: sealed segment is not clustered by key", sealed)
				}
				lost := countSegmentRecords(t, last)
				if err := os.Remove(last); err != nil {
					t.Fatal(err)
				}
				return lost
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, recs, o := prepare(t)
			lost := tc.damage(t, dir, o)
			st, rec := mustOpen(t, dir, Options{SegmentBytes: 400})
			if tc.wantErrs {
				if !rec.Corrupt() {
					t.Fatal("recovery found no damage")
				}
				for _, e := range rec.Errs {
					if !errors.Is(e, ErrCorrupt) {
						t.Fatalf("recovery error does not wrap ErrCorrupt: %v", e)
					}
				}
			} else if rec.Corrupt() {
				t.Fatalf("unexpected recovery errors: %v", rec.Errs)
			}
			if stale, _ := filepath.Glob(filepath.Join(dir, "*"+sortingSuffix)); len(stale) > 0 {
				t.Fatalf("Open left seal temp files: %v", stale)
			}
			// Every key's records come back in append order; merged by
			// epoch they are the store's whole history.
			var got []Record
			for _, d := range devices {
				recs, err := st.Query(AllTime(d, "sig"))
				if err != nil {
					t.Fatalf("post-recovery query: %v", err)
				}
				for i := 1; i < len(recs); i++ {
					if recs[i].Epoch < recs[i-1].Epoch {
						t.Fatalf("%s: epoch %d follows %d", d, recs[i].Epoch, recs[i-1].Epoch)
					}
				}
				got = append(got, recs...)
			}
			slices.SortStableFunc(got, func(a, b Record) int { return cmp.Compare(a.Epoch, b.Epoch) })
			if want := len(recs) - lost; len(got) != want {
				t.Fatalf("salvaged %d records, want %d (lost %d of %d)", len(got), want, lost, len(recs))
			}
			// Every salvaged record is byte-identical to what was written.
			if tc.name == "missing segment in sequence" {
				// Survivors are a prefix + suffix; verify by epoch lookup.
				byEpoch := map[int64][]byte{}
				for _, r := range recs {
					byEpoch[r.Epoch] = r.Body
				}
				for i, g := range got {
					if want, ok := byEpoch[g.Epoch]; !ok || !bytes.Equal(g.Body, want) {
						t.Fatalf("salvaged record %d (epoch %d) body mismatch", i, g.Epoch)
					}
				}
			} else {
				for i, g := range got {
					j := i
					if tc.duplicated && i == len(got)-1 {
						j = len(recs) - 1 // the replayed copy
					}
					if g.Device != recs[j].Device || !bytes.Equal(g.Body, recs[j].Body) {
						t.Fatalf("salvaged record %d mismatch", i)
					}
				}
			}
			// Post-recovery appends round-trip.
			nb := wireBody(t, 64, 8, 2, 999)
			eff, err := st.Append(Record{Device: "ecu-a", Signal: "sig", Epoch: 1 << 40, Body: nb})
			if err != nil {
				t.Fatalf("post-recovery append: %v", err)
			}
			after, err := st.Query(Query{Device: "ecu-a", Signal: "sig", From: eff, To: eff})
			if err != nil {
				t.Fatal(err)
			}
			if len(after) != 1 || !bytes.Equal(after[0].Body, nb) {
				t.Fatalf("post-recovery append did not round-trip (%d records)", len(after))
			}
			// Rotation after recovery must not collide with anything
			// damage left on disk (the next sequence number has to be
			// genuinely free).
			if err := st.Rotate(); err != nil {
				t.Fatalf("post-recovery rotate: %v", err)
			}
			if _, err := st.Append(Record{Device: "ecu-a", Signal: "sig", Epoch: 1<<40 + 1, Body: nb}); err != nil {
				t.Fatalf("post-rotation append: %v", err)
			}
		})
	}
}

// crashBeforeRename puts the sealed segment at path in the state a
// crash leaves when it hits the seal after the key-clustered temp file
// was written but before the rename: the segment in append order, and
// beside it the temp file, complete or cut to keep(n) of its n bytes.
func crashBeforeRename(t *testing.T, path string, keep func(n int) int) {
	t.Helper()
	sorted := segmentLayout(t, path, true)
	appendOrder := segmentLayout(t, path, false)
	if bytes.Equal(sorted, appendOrder) {
		t.Fatalf("%s: clustering does not reorder the fixture", path)
	}
	if err := os.WriteFile(path, appendOrder, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+sortingSuffix, sorted[:keep(len(sorted))], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCorruptHeader: a segment whose header is damaged is dropped
// from the index (fail closed), quarantined aside, reported, and the
// rest still serves.
func TestStoreCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{SegmentBytes: 400})
	recs := fillSegments(t, st, 3, "ecu-a")
	st.Close()
	names, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(names[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad}, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st2, rec := mustOpen(t, dir, Options{SegmentBytes: 400})
	if !rec.Corrupt() {
		t.Fatal("damaged header not reported")
	}
	got, err := st2.Query(AllTime("ecu-a", "sig"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(recs) || len(got) == 0 {
		t.Fatalf("salvaged %d records; want fewer than %d but nonzero", len(got), len(recs))
	}
	// The damaged file was moved aside for forensics, not deleted, and
	// the quarantine name is invisible to the segment scanner.
	if _, err := os.Stat(names[0] + ".corrupt"); err != nil {
		t.Fatalf("damaged segment not quarantined: %v", err)
	}
	if _, err := os.Stat(names[0]); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("damaged segment still present at its sequence: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3 := mustOpen(t, dir, Options{SegmentBytes: 400})
	if rec3.Corrupt() {
		t.Fatalf("reopen after quarantine still reports damage: %v", rec3.Errs)
	}
}

// TestStoreTornHeaderOnlySegment reproduces the newActiveSegment crash
// window: the segment header write is not fsynced before first use, so
// a crash can leave the store's only segment with a torn header. Open
// must still succeed — the damaged file is quarantined, freeing
// sequence 1 for the O_EXCL create — and appends must work at once.
func TestStoreTornHeaderOnlySegment(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	body := wireBody(t, 64, 8, 2, 1)
	if _, err := st.Append(Record{Device: "d", Signal: "s", Epoch: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, _, err := listSegments(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one segment, got %v (err %v)", names, err)
	}
	if err := os.Truncate(names[0], 7); err != nil { // tear mid-header
		t.Fatal(err)
	}
	st2, rec := mustOpen(t, dir, Options{})
	if !rec.Corrupt() {
		t.Fatal("torn header not reported")
	}
	if rec.Records != 0 {
		t.Fatalf("salvaged %d record(s) from a headerless store", rec.Records)
	}
	if _, err := os.Stat(names[0] + ".corrupt"); err != nil {
		t.Fatalf("damaged segment not quarantined: %v", err)
	}
	if _, err := st2.Append(Record{Device: "d", Signal: "s", Epoch: 2, Body: body}); err != nil {
		t.Fatalf("append after quarantine: %v", err)
	}
	got, err := st2.Query(AllTime("d", "s"))
	if err != nil || len(got) != 1 {
		t.Fatalf("post-recovery query: %v (%d records, want 1)", err, len(got))
	}
	// A second crash in the same window quarantines again (uniquified
	// name) rather than colliding with the first quarantine file.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(names[0], 7); err != nil {
		t.Fatal(err)
	}
	st3, rec3 := mustOpen(t, dir, Options{})
	if !rec3.Corrupt() {
		t.Fatal("second torn header not reported")
	}
	if _, err := os.Stat(names[0] + ".corrupt.2"); err != nil {
		t.Fatalf("second quarantine not uniquified: %v", err)
	}
	if _, err := st3.Append(Record{Device: "d", Signal: "s", Epoch: 3, Body: body}); err != nil {
		t.Fatalf("append after second quarantine: %v", err)
	}
}

// TestStoreQueryLimit: Query.Limit stops the scan early and returns
// the first matches in append order — the service endpoints rely on
// this to bound what an unbounded epoch range can materialize.
func TestStoreQueryLimit(t *testing.T) {
	st, _ := mustOpen(t, t.TempDir(), Options{SegmentBytes: 300})
	for i := 0; i < 30; i++ {
		if _, err := st.Append(Record{
			Device: "d", Signal: "s", Epoch: int64(i), Body: wireBody(t, 32, 6, 1, int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().Segments < 2 {
		t.Fatal("want a multi-segment store to exercise the cross-segment stop")
	}
	q := AllTime("d", "s")
	q.Limit = 7
	got, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("Limit=7 returned %d records", len(got))
	}
	for i, g := range got {
		if g.Epoch != int64(i) {
			t.Fatalf("record %d has epoch %d; limited queries must keep append order", i, g.Epoch)
		}
	}
	// A limit above the match count returns everything.
	q.Limit = 1000
	if got, err = st.Query(q); err != nil || len(got) != 30 {
		t.Fatalf("Limit=1000: %v (%d records, want 30)", err, len(got))
	}
	// Limit composes with a range: the first matches inside it.
	got, err = st.Query(Query{Device: "d", Signal: "s", From: 10, To: 29, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("ranged Limit=5 returned %d records", len(got))
	}
	if got[0].Epoch != 10 || got[4].Epoch != 14 {
		t.Fatalf("ranged Limit=5 spans epochs %d..%d, want 10..14", got[0].Epoch, got[4].Epoch)
	}
}

// TestCompactionProperty: random append+rotate+compact interleavings.
// The invariant: a time-range query returns byte-identical frames
// before and after compaction for ranges inside the retention window,
// and nothing outside it. "Inside the retention window" is precise —
// records of segments that survived compaction.
func TestCompactionProperty(t *testing.T) {
	const rounds = 30
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("seed=%d", round), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(round) * 7919))
			dir := t.TempDir()
			maxSegs := 2 + rng.Intn(3)
			st, _ := mustOpen(t, dir, Options{SegmentBytes: 300, MaxSegments: maxSegs})
			devices := []string{"ecu-a", "ecu-b"}
			// model holds every record ever appended, in order, per key.
			model := map[Key][]Record{}
			epoch := int64(0)
			steps := 60 + rng.Intn(60)
			for i := 0; i < steps; i++ {
				switch rng.Intn(10) {
				case 8:
					if err := st.Rotate(); err != nil {
						t.Fatal(err)
					}
				case 9:
					if _, err := st.Compact(); err != nil {
						t.Fatal(err)
					}
				default:
					epoch += int64(1 + rng.Intn(3))
					key := Key{devices[rng.Intn(len(devices))], "sig"}
					r := Record{
						Device: key.Device, Signal: key.Signal, Epoch: epoch,
						TraceCycleBase: int64(i), Body: wireBody(t, 32, 6, 1+rng.Intn(3), int64(i)),
					}
					if _, err := st.Append(r); err != nil {
						t.Fatal(err)
					}
					model[key] = append(model[key], r)
				}
			}
			check := func(when string) {
				for key, all := range model {
					got, err := st.Query(AllTime(key.Device, key.Signal))
					if err != nil {
						t.Fatalf("%s: query: %v", when, err)
					}
					// Retention drops oldest-first, so what survives must be
					// a contiguous SUFFIX of the appended history.
					if len(got) > len(all) {
						t.Fatalf("%s: %d records for %v, appended only %d", when, len(got), key, len(all))
					}
					tail := all[len(all)-len(got):]
					for i := range got {
						if got[i].Epoch != tail[i].Epoch || !bytes.Equal(got[i].Body, tail[i].Body) {
							t.Fatalf("%s: %v record %d not byte-identical to appended suffix", when, key, i)
						}
					}
					// Sub-range inside the surviving window is exact.
					if len(got) > 2 {
						from, to := got[1].Epoch, got[len(got)-1].Epoch
						sub, err := st.Query(Query{Device: key.Device, Signal: key.Signal, From: from, To: to})
						if err != nil {
							t.Fatal(err)
						}
						wantSub := 0
						for _, g := range got {
							if g.Epoch >= from && g.Epoch <= to {
								wantSub++
							}
						}
						if len(sub) != wantSub {
							t.Fatalf("%s: sub-range [%d,%d] returned %d records, want %d", when, from, to, len(sub), wantSub)
						}
						// Nothing outside the retention window: a range below
						// the surviving minimum returns empty.
						if first := got[0].Epoch; first > 0 {
							below, err := st.Query(Query{Device: key.Device, Signal: key.Signal, From: 0, To: first - 1})
							if err != nil {
								t.Fatal(err)
							}
							if len(below) != 0 {
								t.Fatalf("%s: %d record(s) below the retention window", when, len(below))
							}
						}
					}
				}
			}
			check("before final compaction")
			if err := st.Rotate(); err != nil { // seal so everything is compactable
				t.Fatal(err)
			}
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			if got := st.Stats().Segments; got > maxSegs {
				t.Fatalf("compaction left %d segments, cap %d", got, maxSegs)
			}
			check("after final compaction")
			// Counter balance: every append is on disk or compacted.
			s := st.Stats()
			if s.Appends != int64(s.Records)+s.CompactedRecords {
				t.Fatalf("counter imbalance: appends=%d records=%d compacted=%d",
					s.Appends, s.Records, s.CompactedRecords)
			}
		})
	}
}

// TestStoreHammer is the concurrency hammer: concurrent per-device
// writers, query readers, and a compaction loop, under -race. After
// the dust settles: no lost records (every key's surviving history is
// a contiguous suffix of what its writer appended) and the counters
// balance exactly (appends == records on disk + compacted).
func TestStoreHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer skipped in -short")
	}
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st, _ := mustOpen(t, dir, Options{SegmentBytes: 2048, MaxSegments: 6, Obs: reg})
	const writers = 4
	const perWriter = 120
	body := wireBody(t, 32, 6, 2, 42)
	errs := make(chan error, writers+2)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			dev := fmt.Sprintf("ecu-%d", w)
			for i := 0; i < perWriter; i++ {
				// Epoch == sequence number so the suffix check below can
				// detect loss or reordering.
				if _, err := st.Append(Record{Device: dev, Signal: "sig", Epoch: int64(i), Body: body}); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
			errs <- nil
		}()
	}
	go func() { // reader loop
		for {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			dev := fmt.Sprintf("ecu-%d", rand.Intn(writers))
			recs, err := st.Query(AllTime(dev, "sig"))
			if err != nil {
				errs <- fmt.Errorf("reader: %w", err)
				return
			}
			for i := 1; i < len(recs); i++ {
				if recs[i].Epoch != recs[i-1].Epoch+1 {
					errs <- fmt.Errorf("reader: %s gap %d -> %d", dev, recs[i-1].Epoch, recs[i].Epoch)
					return
				}
			}
		}
	}()
	go func() { // compaction loop
		for {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			if _, err := st.Compact(); err != nil {
				errs <- fmt.Errorf("compactor: %w", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Pin every key into the active segment (which retention never
	// drops): with the compactor stopped, each key's final record is
	// now guaranteed to survive, so the suffix invariant below is
	// decidable — a fast-finishing writer's whole history may
	// legitimately have been compacted away before this.
	for w := 0; w < writers; w++ {
		dev := fmt.Sprintf("ecu-%d", w)
		if _, err := st.Append(Record{Device: dev, Signal: "sig", Epoch: perWriter, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	// No lost records: each key's survivors are a contiguous suffix of
	// its appended epochs ending at the pin (compaction drops whole
	// segments oldest-first, so gaps or a missing newest record mean a
	// record was lost rather than retired).
	for w := 0; w < writers; w++ {
		dev := fmt.Sprintf("ecu-%d", w)
		recs, err := st.Query(AllTime(dev, "sig"))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: pinned record missing", dev)
		}
		if last := recs[len(recs)-1].Epoch; last != perWriter {
			t.Fatalf("%s: newest surviving epoch %d, want %d", dev, last, perWriter)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Epoch != recs[i-1].Epoch+1 {
				t.Fatalf("%s: lost record between epochs %d and %d", dev, recs[i-1].Epoch, recs[i].Epoch)
			}
		}
	}
	// Exact counter balance, from Stats and from the metrics registry.
	s := st.Stats()
	if s.Appends != int64(writers*(perWriter+1)) {
		t.Fatalf("appends=%d, want %d", s.Appends, writers*(perWriter+1))
	}
	if s.Appends != int64(s.Records)+s.CompactedRecords {
		t.Fatalf("counter imbalance: appends=%d records=%d compacted=%d", s.Appends, s.Records, s.CompactedRecords)
	}
	snap := reg.Snapshot()
	mAppends := snap.Counters[MetricAppends]
	mCompacted := snap.Counters[MetricCompactedRecords]
	if mAppends != s.Appends || mCompacted != s.CompactedRecords {
		t.Fatalf("metrics disagree with stats: appends %d/%d compacted %d/%d",
			mAppends, s.Appends, mCompacted, s.CompactedRecords)
	}
}

// TestStoreKeysAndStats covers the listing surface.
func TestStoreKeysAndStats(t *testing.T) {
	st, _ := mustOpen(t, t.TempDir(), Options{})
	body := wireBody(t, 64, 8, 2, 7)
	for i := 0; i < 5; i++ {
		if _, err := st.Append(Record{Device: "b-dev", Signal: "s1", Epoch: int64(10 + i), Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Append(Record{Device: "a-dev", Signal: "s2", Epoch: 3, Body: body}); err != nil {
		t.Fatal(err)
	}
	keys := st.Keys()
	if len(keys) != 2 {
		t.Fatalf("Keys returned %d entries, want 2", len(keys))
	}
	if keys[0].Device != "a-dev" || keys[1].Device != "b-dev" {
		t.Fatalf("Keys not sorted by device: %+v", keys)
	}
	if keys[1].Records != 5 || keys[1].MinEpoch != 10 || keys[1].MaxEpoch != 14 {
		t.Fatalf("b-dev summary wrong: %+v", keys[1])
	}
	if s := st.Stats(); s.Records != 6 || s.Segments != 1 || s.Appends != 6 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

// TestStoreClosed: every mutating and reading operation fails with
// ErrClosed after Close, and Close is idempotent.
func TestStoreClosed(t *testing.T) {
	st, _ := mustOpen(t, t.TempDir(), Options{})
	body := wireBody(t, 64, 8, 2, 7)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := st.Append(Record{Device: "d", Signal: "s", Body: body}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if _, err := st.Query(AllTime("d", "s")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close: %v", err)
	}
	if err := st.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate after Close: %v", err)
	}
}

// TestStoreForeignFilesIgnored: non-segment files in the directory are
// left alone and do not confuse the scanner; Open deletes only seal
// temp files named after a segment.
func TestStoreForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README.txt", "notes.sorting"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, rec := mustOpen(t, dir, Options{})
	if rec.Corrupt() {
		t.Fatalf("foreign file reported as corruption: %v", rec.Errs)
	}
	body := wireBody(t, 64, 8, 2, 7)
	if _, err := st.Append(Record{Device: "d", Signal: "s", Epoch: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"README.txt", "notes.sorting"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("foreign file disturbed: %v", err)
		}
	}
}
