// Package logstore is the durable, segmented, append-only on-disk
// store for timeprint wire logs — the fleet-scale persistence layer
// under timeprintd's forensic query endpoints. Each record carries one
// complete core.WriteLog frame keyed by (device, signal, epoch): the
// constant-rate logs the paper's on-chip hardware streams off-chip
// survive the request that delivered them, so historical and
// time-range reconstruction queries (the Section 5.2.2 refresh-delay
// mining workload across a fleet of ECUs) run against what the fleet
// actually sent.
//
// Design rules, in order of importance:
//
//   - Fail closed. Every record is CRC-framed; bytes that fail the
//     frame are never served as data. Open-time recovery salvages the
//     intact prefix of a damaged segment, truncates the damage away,
//     and reports it as a typed error wrapping ErrCorrupt.
//   - Append-only. Segments are written once, sealed at a fixed size
//     boundary (fsync-on-rotate), and never rewritten. Retention drops
//     whole sealed segments oldest-first — compaction is an unlink,
//     not a rewrite, so it can never corrupt surviving data.
//   - Cheap open. The in-memory index (per-segment, per-key epoch
//     bounds plus a sparse offset list) is rebuilt by scanning segments
//     on open; there is no separate index file to keep consistent.
//   - Monotone epochs. Within one (device, signal) key, epochs never
//     decrease: Append clamps a lagging epoch up to the key's last
//     value (wall clocks step; forensic order must not), which keeps
//     time-range queries sound under the sparse index.
package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Typed errors. ErrCorrupt wraps every structural failure (torn or
// zero-filled tails, CRC mismatches, bad headers, missing segments in
// the sequence) so callers can classify with errors.Is; it deliberately
// mirrors core.ErrCorrupt's fail-closed contract.
var (
	ErrCorrupt = errors.New("logstore: corrupt store")
	ErrClosed  = errors.New("logstore: store closed")
)

// Metric names published by the store (on Options.Obs).
const (
	// MetricAppends counts records appended; MetricAppendBytes their
	// framed on-disk bytes.
	MetricAppends     = "logstore.appends"
	MetricAppendBytes = "logstore.append.bytes"
	// Gauges tracking the live store shape.
	MetricRecords  = "logstore.records"
	MetricSegments = "logstore.segments"
	MetricBytes    = "logstore.bytes"
	// MetricRotations counts segment seals (each one fsynced).
	MetricRotations = "logstore.rotations"
	// Compaction drops whole sealed segments; both sides are counted so
	// the balance invariant appends == records + compacted is checkable
	// from a metrics snapshot alone.
	MetricCompactedRecords  = "logstore.compacted.records"
	MetricCompactedSegments = "logstore.compacted.segments"
	// Open-time recovery: MetricRecoveries counts opens that found
	// damage, MetricRecoveredRecords the records salvaged ahead of it,
	// MetricTruncatedBytes the damaged bytes dropped.
	MetricRecoveries       = "logstore.recoveries"
	MetricRecoveredRecords = "logstore.recovered.records"
	MetricTruncatedBytes   = "logstore.truncated.bytes"
	// Query-side counters.
	MetricQueries      = "logstore.queries"
	MetricQueryRecords = "logstore.query.records"
	// MetricQueryScanned counts the records queries walked, matching
	// or not; query.records over query.scanned is the read path's
	// useful-work ratio.
	MetricQueryScanned = "logstore.query.scanned"
)

// Options tunes a Store. The zero value is production-usable.
type Options struct {
	// SegmentBytes is the rotation threshold (default 1 MiB): an append
	// that would grow the active segment past it seals the segment
	// first. A single record larger than the threshold still fits — a
	// segment holds at least one record.
	SegmentBytes int64
	// MaxSegments bounds the store (active segment included); beyond
	// it, Compact (called automatically after every rotation) drops the
	// oldest sealed segments whole. 0 = unlimited.
	MaxSegments int
	// MaxRecordBytes bounds one record's payload (default 16 MiB);
	// larger appends are rejected and larger on-disk lengths read as
	// corruption.
	MaxRecordBytes int64
	// NoSync skips fsync on rotate/close (tests on tmpfs; never in
	// production).
	NoSync bool
	// Obs receives the store metrics; nil disables instrumentation.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 16 << 20
	}
	return o
}

// Key identifies one logged stream.
type Key struct {
	Device string
	Signal string
}

// Record is one stored wire log: a complete core.WriteLog frame plus
// the stream identity and position it was ingested under. Epoch is an
// opaque int64 timestamp (timeprintd uses Unix microseconds) that is
// monotone non-decreasing within a key; TraceCycleBase is the absolute
// trace-cycle index of the frame's first entry.
type Record struct {
	Device         string
	Signal         string
	Epoch          int64
	TraceCycleBase int64
	Body           []byte
}

// Query selects records of one key with Epoch in [From, To], both
// inclusive. Use AllTime for an unbounded range.
type Query struct {
	Device string
	Signal string
	From   int64
	To     int64
	// Limit, when positive, bounds how many records the query returns:
	// the scan stops as soon as Limit matches are collected (records
	// come back in append order), so a bounded query over an unbounded
	// epoch range never materializes the whole stored stream. 0 means
	// unlimited.
	Limit int
}

// AllTime returns the query covering a key's whole history.
func AllTime(device, signal string) Query {
	return Query{Device: device, Signal: signal, From: math.MinInt64, To: math.MaxInt64}
}

// KeyInfo summarizes one stream currently on disk.
type KeyInfo struct {
	Device   string
	Signal   string
	Records  int
	MinEpoch int64
	MaxEpoch int64
}

// Stats is a consistent snapshot of the store counters. The balance
// invariant for a store opened on an empty directory is
// Appends == Records + CompactedRecords, exactly.
type Stats struct {
	Segments          int
	Records           int
	Bytes             int64
	Appends           int64
	Rotations         int64
	CompactedRecords  int64
	CompactedSegments int64
}

// Recovery reports what Open found. Errs carries one typed error
// (wrapping ErrCorrupt) per damaged or missing segment; the store is
// still usable — every intact record ahead of the damage was salvaged
// and the damaged tail was truncated away so appends restart cleanly.
type Recovery struct {
	Segments       int
	Records        int
	TruncatedBytes int64
	Errs           []error
}

// Corrupt reports whether recovery found any damage.
func (r *Recovery) Corrupt() bool { return len(r.Errs) > 0 }

// idxPoint is one sparse-index sample: the epoch of the record at off.
type idxPoint struct {
	epoch int64
	off   int64
}

// keyIndex is one key's footprint within one segment.
type keyIndex struct {
	minEpoch int64
	maxEpoch int64
	count    int
	// sorted is true while the key's epochs within the segment are
	// non-decreasing in file order — Append guarantees it, but a
	// hand-damaged or foreign file may not; unsorted keys fall back to
	// full-segment scans so the sparse seek stays sound.
	sorted bool
	sparse []idxPoint
}

// segment is one on-disk file plus its in-memory index.
type segment struct {
	seq     uint64
	path    string
	size    int64
	records int
	sealed  bool
	f       *os.File // open for append on the active segment only
	keys    map[Key]*keyIndex
}

// Store is a live log store. All methods are safe for concurrent use:
// appends and compaction serialize on a write lock, queries share a
// read lock (so a query never observes a half-written record or a
// segment file unlinked underneath it).
type Store struct {
	dir  string
	opts Options
	obs  *obs.Registry

	mu        sync.RWMutex
	segs      []*segment
	lastEpoch map[Key]int64
	stats     Stats
	closed    bool
}

// Open opens (creating if needed) the store in dir and rebuilds the
// in-memory index by scanning the segment files. Damage never fails
// the open: intact records are salvaged, damaged tails truncated, and
// every finding lands in the Recovery report as an error wrapping
// ErrCorrupt. Open fails only for real I/O errors (permissions, a dir
// that cannot be created).
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("logstore: %w", err)
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		obs:       opts.Obs,
		lastEpoch: make(map[Key]int64),
	}
	rec := &Recovery{}
	names, seqs, err := listSegments(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("logstore: %w", err)
	}
	for i, name := range names {
		if i > 0 && seqs[i] != seqs[i-1]+1 {
			rec.Errs = append(rec.Errs, fmt.Errorf(
				"logstore: segment sequence gap: %d follows %d (segments %d..%d missing): %w",
				seqs[i], seqs[i-1], seqs[i-1]+1, seqs[i]-1, ErrCorrupt))
		}
		seg, segErr := s.scanSegment(name, seqs[i], rec)
		if seg != nil {
			s.segs = append(s.segs, seg)
			s.absorbSegment(seg)
		} else {
			// Unsalvageable: the file must not keep squatting on its
			// sequence number — newActiveSegment creates with O_EXCL, so
			// a file dropped in place would fail the open (when it holds
			// the lowest sequence) or wedge every rotation after recovery
			// (when it holds the highest). Quarantine it instead: the
			// bytes stay on disk for offline forensics, the sequence
			// number is free again.
			qpath, qerr := quarantineSegment(name)
			if qerr != nil {
				return nil, nil, fmt.Errorf("logstore: quarantine segment %s: %w", filepath.Base(name), qerr)
			}
			if err := s.syncDir(); err != nil {
				return nil, nil, err
			}
			segErr = fmt.Errorf("logstore: segment %s quarantined as %s: %w",
				filepath.Base(name), filepath.Base(qpath), segErr)
		}
		if segErr != nil {
			rec.Errs = append(rec.Errs, segErr)
		}
	}
	// Seal everything but the last segment, which resumes as the
	// append target.
	for i, seg := range s.segs {
		seg.sealed = i < len(s.segs)-1
	}
	if len(s.segs) == 0 {
		if err := s.newActiveSegment(1); err != nil {
			return nil, nil, err
		}
	} else {
		active := s.segs[len(s.segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("logstore: reopen active segment: %w", err)
		}
		if _, err := f.Seek(active.size, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("logstore: seek active segment: %w", err)
		}
		active.f = f
	}
	rec.Segments = len(s.segs)
	rec.Records = s.stats.Records
	if rec.Corrupt() {
		s.obs.Counter(MetricRecoveries).Inc()
		s.obs.Counter(MetricTruncatedBytes).Add(rec.TruncatedBytes)
		s.obs.Counter(MetricRecoveredRecords).Add(int64(rec.Records))
	}
	s.publishGauges()
	return s, rec, nil
}

// scanSegment rebuilds one segment's index, truncating any damaged
// tail. It returns the usable segment (nil when the segment is
// unsalvageable — an unreadable header, or a tail that could not be
// truncated — in which case Open quarantines the file) and the damage
// found, wrapping ErrCorrupt. It touches only segment-local state;
// Open absorbs the index into the store on success.
func (s *Store) scanSegment(path string, seq uint64, rec *Recovery) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("logstore: segment %s: %v: %w", filepath.Base(path), err, ErrCorrupt)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("logstore: segment %s: %v: %w", filepath.Base(path), err, ErrCorrupt)
	}
	hdrSeq, err := readSegmentHeader(f)
	if err != nil {
		// Nothing salvageable without a trustworthy header; drop the
		// whole file from the index (fail closed) but leave it on disk
		// for offline forensics.
		return nil, fmt.Errorf("logstore: segment %s: %w", filepath.Base(path), err)
	}
	if hdrSeq != seq {
		return nil, fmt.Errorf("logstore: segment %s header claims sequence %d: %w",
			filepath.Base(path), hdrSeq, ErrCorrupt)
	}
	seg := &segment{seq: seq, path: path, keys: make(map[Key]*keyIndex)}
	// byKey finds a walked record's index entry from its raw key bytes
	// without converting them to strings: a lookup m[string(b)] does not
	// allocate, so only a segment's first record of each key does.
	byKey := make(map[string]*keyIndex)
	w := newWalker(f, segHeaderSize, st.Size(), s.opts.MaxRecordBytes)
	defer w.release()
	var walkErr error
	for {
		v, err := w.next()
		if v == nil {
			walkErr = err
			break
		}
		ki := byKey[string(v.key)]
		if ki == nil {
			ki = seg.keyIndexFor(Key{string(v.device), string(v.signal)})
			byKey[string(v.key)] = ki
		}
		seg.add(ki, v.epoch, v.off)
	}
	goodOff := w.off
	seg.size = goodOff
	if walkErr != nil {
		// Damaged tail: truncate the file back to the last intact
		// record so post-recovery appends land on a clean boundary.
		dropped := st.Size() - goodOff
		rec.TruncatedBytes += dropped
		if err := os.Truncate(path, goodOff); err != nil {
			return nil, fmt.Errorf("logstore: segment %s: truncate damaged tail: %v: %w",
				filepath.Base(path), err, ErrCorrupt)
		}
		return seg, fmt.Errorf("logstore: segment %s: salvaged %d record(s), dropped %d damaged byte(s): %w",
			filepath.Base(path), seg.records, dropped, walkErr)
	}
	if st.Size() != goodOff {
		// The walk stopped clean but short (cannot happen today;
		// defensive against a future early-exit) — treat like damage.
		rec.TruncatedBytes += st.Size() - goodOff
		if err := os.Truncate(path, goodOff); err != nil {
			return nil, fmt.Errorf("logstore: segment %s: truncate: %v: %w", filepath.Base(path), err, ErrCorrupt)
		}
	}
	return seg, nil
}

// indexRecord folds one appended record into the segment index and the
// store-wide bookkeeping. The open-time scan instead indexes into the
// candidate segment only and absorbs it on success, so a segment
// dropped during recovery never pollutes the store counters or the
// per-key epoch clamp.
func (s *Store) indexRecord(seg *segment, r Record, off int64) {
	key := Key{r.Device, r.Signal}
	seg.add(seg.keyIndexFor(key), r.Epoch, off)
	s.stats.Records++
	if last, ok := s.lastEpoch[key]; !ok || r.Epoch > last {
		s.lastEpoch[key] = r.Epoch
	}
}

// keyIndexFor returns the segment's index entry for key, creating it.
func (seg *segment) keyIndexFor(key Key) *keyIndex {
	ki := seg.keys[key]
	if ki == nil {
		ki = &keyIndex{minEpoch: math.MaxInt64, maxEpoch: math.MinInt64, sorted: true}
		seg.keys[key] = ki
	}
	return ki
}

// add folds one record of ki's key, at file offset off, into the
// segment's local index.
func (seg *segment) add(ki *keyIndex, epoch, off int64) {
	if epoch < ki.maxEpoch {
		ki.sorted = false
	}
	ki.minEpoch = min(ki.minEpoch, epoch)
	ki.maxEpoch = max(ki.maxEpoch, epoch)
	if ki.count%sparseEvery == 0 {
		ki.sparse = append(ki.sparse, idxPoint{epoch: epoch, off: off})
	}
	ki.count++
	seg.records++
}

// absorbSegment folds one scanned segment's index into the store-wide
// bookkeeping. Caller is Open, once per salvaged segment.
func (s *Store) absorbSegment(seg *segment) {
	s.stats.Records += seg.records
	for key, ki := range seg.keys {
		if last, ok := s.lastEpoch[key]; !ok || ki.maxEpoch > last {
			s.lastEpoch[key] = ki.maxEpoch
		}
	}
}

// newActiveSegment creates the next segment file with its header and
// makes it the append target. Caller holds mu (or is Open).
func (s *Store) newActiveSegment(seq uint64) error {
	path := filepath.Join(s.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("logstore: create segment: %w", err)
	}
	if _, err := f.Write(encodeSegmentHeader(seq)); err != nil {
		f.Close()
		return fmt.Errorf("logstore: write segment header: %w", err)
	}
	if err := s.syncDir(); err != nil {
		f.Close()
		return err
	}
	s.segs = append(s.segs, &segment{
		seq: seq, path: path, size: segHeaderSize, f: f,
		keys: make(map[Key]*keyIndex),
	})
	return nil
}

// syncDir fsyncs the store directory so segment creates/unlinks are
// durable (no-op under NoSync).
func (s *Store) syncDir() error {
	if s.opts.NoSync {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("logstore: sync dir: %w", err)
	}
	return nil
}

// validateRecord checks an append candidate's shape.
func (s *Store) validateRecord(rec Record) error {
	if rec.Device == "" || len(rec.Device) > 1024 {
		return fmt.Errorf("logstore: device name must be 1..1024 bytes, got %d", len(rec.Device))
	}
	if rec.Signal == "" || len(rec.Signal) > 1024 {
		return fmt.Errorf("logstore: signal name must be 1..1024 bytes, got %d", len(rec.Signal))
	}
	if !core.IsWireLog(rec.Body) {
		return fmt.Errorf("logstore: record body is not a timeprint wire log: %w", core.ErrCorrupt)
	}
	if n := int64(2 + len(rec.Device) + 2 + len(rec.Signal) + 16 + len(rec.Body)); n > s.opts.MaxRecordBytes {
		return fmt.Errorf("logstore: record payload %d bytes exceeds cap %d", n, s.opts.MaxRecordBytes)
	}
	return nil
}

// Append durably queues one record. The record's epoch is clamped up
// to the key's last stored epoch (epochs are monotone within a key);
// the effective epoch is returned. The write is buffered by the OS —
// durability is guaranteed at the next rotation, Sync or Close.
func (s *Store) Append(rec Record) (int64, error) {
	if err := s.validateRecord(rec); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	key := Key{rec.Device, rec.Signal}
	if last, ok := s.lastEpoch[key]; ok && rec.Epoch < last {
		rec.Epoch = last
	}
	frame := frameRecord(encodeRecord(rec))
	active := s.segs[len(s.segs)-1]
	if active.records > 0 && active.size+int64(len(frame)) > s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return 0, err
		}
		active = s.segs[len(s.segs)-1]
	}
	if _, err := active.f.Write(frame); err != nil {
		return 0, fmt.Errorf("logstore: append: %w", err)
	}
	s.indexRecord(active, rec, active.size)
	active.size += int64(len(frame))
	s.stats.Appends++
	s.obs.Counter(MetricAppends).Inc()
	s.obs.Counter(MetricAppendBytes).Add(int64(len(frame)))
	if r := core.Observer(); r != nil {
		r.Counter(core.MetricWireFramesStored).Inc()
		r.Counter(core.MetricWireBytesStored).Add(int64(len(rec.Body)))
	}
	s.publishGauges()
	return rec.Epoch, nil
}

// Rotate seals the active segment now (fsync) and opens a fresh one.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.segs[len(s.segs)-1].records == 0 {
		return nil // already fresh
	}
	return s.rotateLocked()
}

// rotateLocked seals the active segment — this is the durability
// point: the sealed file is fsynced before the new one is created —
// then enforces retention. Caller holds mu.
func (s *Store) rotateLocked() error {
	active := s.segs[len(s.segs)-1]
	if !s.opts.NoSync {
		if err := active.f.Sync(); err != nil {
			return fmt.Errorf("logstore: sync on rotate: %w", err)
		}
	}
	if err := active.f.Close(); err != nil {
		return fmt.Errorf("logstore: close sealed segment: %w", err)
	}
	active.f = nil
	active.sealed = true
	s.stats.Rotations++
	s.obs.Counter(MetricRotations).Inc()
	if err := s.newActiveSegment(active.seq + 1); err != nil {
		return err
	}
	_, err := s.compactLocked()
	s.publishGauges()
	return err
}

// Compact enforces retention now: whole sealed segments are dropped
// oldest-first until at most Options.MaxSegments remain. It returns
// how many records were dropped. With MaxSegments == 0 it is a no-op.
func (s *Store) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n, err := s.compactLocked()
	s.publishGauges()
	return n, err
}

func (s *Store) compactLocked() (int, error) {
	if s.opts.MaxSegments <= 0 {
		return 0, nil
	}
	dropped := 0
	for len(s.segs) > s.opts.MaxSegments && s.segs[0].sealed {
		oldest := s.segs[0]
		if err := os.Remove(oldest.path); err != nil {
			return dropped, fmt.Errorf("logstore: compact: %w", err)
		}
		s.segs = s.segs[1:]
		dropped += oldest.records
		s.stats.Records -= oldest.records
		s.stats.CompactedRecords += int64(oldest.records)
		s.stats.CompactedSegments++
		s.obs.Counter(MetricCompactedRecords).Add(int64(oldest.records))
		s.obs.Counter(MetricCompactedSegments).Inc()
	}
	if dropped > 0 {
		if err := s.syncDir(); err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// Query returns the key's records with epoch in [q.From, q.To], in
// append order, with bodies copied out byte-identically. A structural
// failure while reading (a segment damaged since open) fails closed
// with an error wrapping ErrCorrupt.
//
// The returned records share q.Device and q.Signal as their names, and
// their bodies are capacity-bounded slices of one per-query arena: each
// is an independent copy of the stored bytes, and appending to one
// never reaches another.
func (s *Store) Query(q Query) ([]Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if q.From > q.To {
		return nil, fmt.Errorf("logstore: query range [%d, %d] is empty", q.From, q.To)
	}
	key := Key{q.Device, q.Signal}
	qs := queryScan{q: q, key: keyBytes(q.Device, q.Signal)}
	for _, seg := range s.segs {
		if q.Limit > 0 && len(qs.out) >= q.Limit {
			break
		}
		ki := seg.keys[key]
		if ki == nil || ki.count == 0 || ki.minEpoch > q.To || ki.maxEpoch < q.From {
			continue
		}
		if err := s.scanForQuery(seg, ki, &qs); err != nil {
			return nil, err
		}
	}
	s.obs.Counter(MetricQueries).Inc()
	s.obs.Counter(MetricQueryRecords).Add(int64(len(qs.out)))
	s.obs.Counter(MetricQueryScanned).Add(qs.scanned)
	return qs.out, nil
}

// queryScan is one Query's state across the segments it reads.
type queryScan struct {
	q       Query
	key     []byte // keyBytes(q.Device, q.Signal)
	out     []Record
	arena   []byte // backing store of the returned bodies
	scanned int64  // records walked, matching or not
}

// keep appends one matching record, copying its body into the arena.
func (qs *queryScan) keep(v *recordView) {
	if cap(qs.arena)-len(qs.arena) < len(v.body) {
		qs.arena = make([]byte, 0, max(2*cap(qs.arena), len(v.body), 4<<10))
	}
	start := len(qs.arena)
	qs.arena = append(qs.arena, v.body...)
	qs.out = append(qs.out, Record{
		Device: qs.q.Device, Signal: qs.q.Signal,
		Epoch: v.epoch, TraceCycleBase: v.base,
		Body: qs.arena[start:len(qs.arena):len(qs.arena)],
	})
}

// scanForQuery reads one segment's matching records. Sorted keys seek
// via the sparse index (largest sample strictly below From) and stop
// once past To; unsorted keys scan the whole segment. Every record
// walked is CRC-checked, so damage anywhere in the walked span — in any
// key's record — fails the query closed.
func (s *Store) scanForQuery(seg *segment, ki *keyIndex, qs *queryScan) error {
	q := qs.q
	start := int64(segHeaderSize)
	if ki.sorted {
		for _, p := range ki.sparse {
			if p.epoch < q.From && p.off > start {
				start = p.off
			}
		}
	}
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("logstore: segment %s: %v: %w", filepath.Base(seg.path), err, ErrCorrupt)
	}
	defer f.Close()
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return fmt.Errorf("logstore: segment %s: %v: %w", filepath.Base(seg.path), err, ErrCorrupt)
	}
	w := newWalker(f, start, seg.size, s.opts.MaxRecordBytes)
	defer w.release()
	for {
		v, err := w.next()
		if err != nil {
			return fmt.Errorf("logstore: segment %s: %w", filepath.Base(seg.path), err)
		}
		if v == nil {
			return nil
		}
		qs.scanned++
		if !bytes.Equal(v.key, qs.key) {
			continue
		}
		if ki.sorted && v.epoch > q.To {
			return nil
		}
		if v.epoch >= q.From && v.epoch <= q.To {
			qs.keep(v)
			if q.Limit > 0 && len(qs.out) >= q.Limit {
				return nil
			}
		}
	}
}

// Keys lists the streams currently on disk, sorted by device then
// signal, with per-key record counts and epoch bounds.
func (s *Store) Keys() []KeyInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	agg := make(map[Key]*KeyInfo)
	for _, seg := range s.segs {
		for key, ki := range seg.keys {
			if ki.count == 0 {
				continue
			}
			info := agg[key]
			if info == nil {
				agg[key] = &KeyInfo{
					Device: key.Device, Signal: key.Signal,
					Records: ki.count, MinEpoch: ki.minEpoch, MaxEpoch: ki.maxEpoch,
				}
				continue
			}
			info.Records += ki.count
			if ki.minEpoch < info.MinEpoch {
				info.MinEpoch = ki.minEpoch
			}
			if ki.maxEpoch > info.MaxEpoch {
				info.MaxEpoch = ki.maxEpoch
			}
		}
	}
	out := make([]KeyInfo, 0, len(agg))
	for _, info := range agg {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].Signal < out[j].Signal
	})
	return out
}

// Stats returns a consistent snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Segments = len(s.segs)
	st.Bytes = 0
	for _, seg := range s.segs {
		st.Bytes += seg.size
	}
	return st
}

// Sync flushes the active segment to disk (no-op under NoSync).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.opts.NoSync {
		return nil
	}
	return s.segs[len(s.segs)-1].f.Sync()
}

// Close syncs and closes the active segment. The store rejects all
// further operations with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	active := s.segs[len(s.segs)-1]
	if !s.opts.NoSync {
		if err := active.f.Sync(); err != nil {
			active.f.Close()
			return fmt.Errorf("logstore: sync on close: %w", err)
		}
	}
	if err := active.f.Close(); err != nil {
		return fmt.Errorf("logstore: close: %w", err)
	}
	active.f = nil
	return nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// publishGauges refreshes the shape gauges. Caller holds mu.
func (s *Store) publishGauges() {
	if s.obs == nil {
		return
	}
	bytes := int64(0)
	for _, seg := range s.segs {
		bytes += seg.size
	}
	s.obs.Gauge(MetricSegments).Set(int64(len(s.segs)))
	s.obs.Gauge(MetricRecords).Set(int64(s.stats.Records))
	s.obs.Gauge(MetricBytes).Set(bytes)
}
