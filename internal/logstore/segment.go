package logstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// On-disk layout. A segment file is a 16-byte header followed by
// back-to-back CRC-framed records:
//
//	header:  u32 magic "TPSG" | u32 version | u64 sequence number
//	record:  u32 payload length | u32 CRC-32C(payload) | payload
//	payload: u16 len(device) | device | u16 len(signal) | signal |
//	         i64 epoch | i64 traceCycleBase | body (a core.WriteLog
//	         wire frame, self-delimiting, stored verbatim)
//
// All integers are little-endian. The CRC covers the payload only; the
// length field is validated by range (a record must at least hold its
// fixed fields plus a wire-log header) so a zero-filled or truncated
// tail can never alias a valid record. Segments are append-only and
// immutable once sealed: compaction drops whole files, never rewrites.
const (
	segMagic      = 0x47535054 // "TPSG"
	segVersion    = 1
	segHeaderSize = 16
	recFrameSize  = 8 // u32 length + u32 crc

	// minPayload is the smallest well-formed payload: two empty-length
	// prefixes are illegal (device and signal are required non-empty),
	// so 2+1 + 2+1 + 8 + 8 plus at least a 16-byte wire-log header.
	minPayload = 38

	// sparseEvery is the sparse-index sampling interval: every Nth
	// record of a (device, signal) key within a segment lands an index
	// point, bounding both rebuild memory and seek distance.
	sparseEvery = 32
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segmentName renders the canonical file name for a sequence number.
func segmentName(seq uint64) string { return fmt.Sprintf("seg-%08d.tpl", seq) }

// parseSegmentName inverts segmentName; ok is false for foreign files.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".tpl") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".tpl"), 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// quarantineSegment renames an unsalvageable segment file aside (to
// <name>.corrupt, uniquified against earlier quarantines) so its
// sequence number is free for reuse while the bytes stay on disk for
// offline forensics. The suffix keeps the file invisible to
// parseSegmentName, so later opens neither rescan nor re-report it.
func quarantineSegment(path string) (string, error) {
	dst := path + ".corrupt"
	for n := 2; ; n++ {
		if _, err := os.Lstat(dst); errors.Is(err, os.ErrNotExist) {
			break
		} else if err != nil {
			return "", err
		}
		dst = fmt.Sprintf("%s.corrupt.%d", path, n)
	}
	if err := os.Rename(path, dst); err != nil {
		return "", err
	}
	return dst, nil
}

// listSegments returns the store's segment files sorted by sequence.
func listSegments(dir string) ([]string, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type nseq struct {
		name string
		seq  uint64
	}
	var found []nseq
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegmentName(e.Name()); ok {
			found = append(found, nseq{e.Name(), seq})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].seq < found[j].seq })
	names := make([]string, len(found))
	seqs := make([]uint64, len(found))
	for i, f := range found {
		names[i] = filepath.Join(dir, f.name)
		seqs[i] = f.seq
	}
	return names, seqs, nil
}

// encodeSegmentHeader renders the 16-byte segment header.
func encodeSegmentHeader(seq uint64) []byte {
	buf := make([]byte, segHeaderSize)
	binary.LittleEndian.PutUint32(buf[0:], segMagic)
	binary.LittleEndian.PutUint32(buf[4:], segVersion)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	return buf
}

// readSegmentHeader validates a segment header and returns its
// sequence number.
func readSegmentHeader(r io.Reader) (uint64, error) {
	buf := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, fmt.Errorf("segment header: %v: %w", err, ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint32(buf[0:]); got != segMagic {
		return 0, fmt.Errorf("segment magic %#x: %w", got, ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint32(buf[4:]); got != segVersion {
		return 0, fmt.Errorf("segment version %d (want %d): %w", got, segVersion, ErrCorrupt)
	}
	return binary.LittleEndian.Uint64(buf[8:]), nil
}

// encodeRecord renders a record's payload (the bytes under the CRC).
// The caller has already validated the record via validateRecord.
func encodeRecord(rec Record) []byte {
	n := 2 + len(rec.Device) + 2 + len(rec.Signal) + 8 + 8 + len(rec.Body)
	buf := make([]byte, 0, n)
	var u16 [2]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(rec.Device)))
	buf = append(buf, u16[:]...)
	buf = append(buf, rec.Device...)
	binary.LittleEndian.PutUint16(u16[:], uint16(len(rec.Signal)))
	buf = append(buf, u16[:]...)
	buf = append(buf, rec.Signal...)
	binary.LittleEndian.PutUint64(u64[:], uint64(rec.Epoch))
	buf = append(buf, u64[:]...)
	binary.LittleEndian.PutUint64(u64[:], uint64(rec.TraceCycleBase))
	buf = append(buf, u64[:]...)
	buf = append(buf, rec.Body...)
	return buf
}

// frameRecord wraps a payload in its length+CRC frame.
func frameRecord(payload []byte) []byte {
	buf := make([]byte, 0, recFrameSize+len(payload))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(payload)))
	buf = append(buf, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], crc32.Checksum(payload, crcTable))
	buf = append(buf, u32[:]...)
	buf = append(buf, payload...)
	return buf
}

// recordView is one walked record, parsed in place. Every slice aliases
// the walker's payload buffer and is valid only until the walker's next
// call; a caller that keeps bytes copies them out.
type recordView struct {
	// off is the file offset of the record's frame.
	off int64
	// key is the payload's length-prefixed device and signal names. The
	// encoding is injective, so two records share a key exactly when
	// their key bytes are equal (see keyBytes).
	key    []byte
	device []byte
	signal []byte
	epoch  int64
	base   int64
	body   []byte
}

// keyBytes renders a key the way a payload starts, for byte comparison
// against recordView.key.
func keyBytes(device, signal string) []byte {
	buf := make([]byte, 0, 4+len(device)+len(signal))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(device)))
	buf = append(buf, device...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(signal)))
	return append(buf, signal...)
}

// parse fills v from payload, which the caller has CRC-checked. It
// accepts only what encodeRecord produced: any trailing ambiguity
// (short names, no body) is corruption.
func (v *recordView) parse(payload []byte) error {
	rest := payload
	name := func(what string) ([]byte, error) {
		if len(rest) < 2 {
			return nil, fmt.Errorf("record payload truncated in %s length: %w", what, ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint16(rest))
		if len(rest) < 2+n {
			return nil, fmt.Errorf("record payload truncated in %s name: %w", what, ErrCorrupt)
		}
		out := rest[2 : 2+n]
		rest = rest[2+n:]
		return out, nil
	}
	var err error
	if v.device, err = name("device"); err != nil {
		return err
	}
	if v.signal, err = name("signal"); err != nil {
		return err
	}
	v.key = payload[:len(payload)-len(rest)]
	if len(rest) < 16 {
		return fmt.Errorf("record payload truncated in epoch fields: %w", ErrCorrupt)
	}
	v.epoch = int64(binary.LittleEndian.Uint64(rest[0:]))
	v.base = int64(binary.LittleEndian.Uint64(rest[8:]))
	v.body = rest[16:]
	if len(v.device) == 0 || len(v.signal) == 0 || len(v.body) == 0 {
		return fmt.Errorf("record with empty device, signal or body: %w", ErrCorrupt)
	}
	return nil
}

// walkBufSize is the walker's read-ahead: a 256-record window of one
// key in a 16-key fleet walks about 430 KB of interleaved records, a
// handful of reads at this size.
const walkBufSize = 64 << 10

// walker reads one segment's records in file order through a large
// buffered reader into one reused payload buffer. Every record walked,
// matching or not, has its length range-checked and its CRC-32C
// verified before it is parsed: bytes that fail the frame are never
// served as data, and records past damage are unreachable.
type walker struct {
	r       *bufio.Reader
	src     io.LimitedReader
	max     int64
	off     int64 // file offset just past the last intact record
	frame   [recFrameSize]byte
	payload []byte
	view    recordView
}

var walkers = sync.Pool{New: func() any {
	return &walker{r: bufio.NewReaderSize(nil, walkBufSize)}
}}

// newWalker takes a pooled walker reading src, which is positioned at
// file offset off, up to file offset end. Records longer than maxRecord
// read as corruption. Return it with release.
func newWalker(src io.Reader, off, end, maxRecord int64) *walker {
	w := walkers.Get().(*walker)
	w.src = io.LimitedReader{R: src, N: end - off}
	w.r.Reset(&w.src)
	w.max, w.off = maxRecord, off
	return w
}

// release drops the walker's source and returns it to the pool. A
// payload buffer grown past the read-ahead by one huge record is not
// kept alive.
func (w *walker) release() {
	w.src.R = nil
	w.r.Reset(nil)
	if cap(w.payload) > walkBufSize {
		w.payload = nil
	}
	walkers.Put(w)
}

// next reads, checks and parses the next record. It returns nil at a
// clean end exactly at a record boundary, and an error wrapping
// ErrCorrupt when the walk stopped at damage (torn frame, bad CRC, zero
// fill, unparseable payload). Either way w.off is then just past the
// last intact record.
func (w *walker) next() (*recordView, error) {
	if _, err := io.ReadFull(w.r, w.frame[:]); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, fmt.Errorf("record frame at offset %d: %v: %w", w.off, err, ErrCorrupt)
	}
	length := int64(binary.LittleEndian.Uint32(w.frame[0:]))
	wantCRC := binary.LittleEndian.Uint32(w.frame[4:])
	if length < minPayload || length > w.max {
		return nil, fmt.Errorf("record length %d at offset %d outside [%d, %d]: %w",
			length, w.off, minPayload, w.max, ErrCorrupt)
	}
	if int64(cap(w.payload)) < length {
		w.payload = make([]byte, max(length, 4<<10))
	}
	payload := w.payload[:length]
	if _, err := io.ReadFull(w.r, payload); err != nil {
		return nil, fmt.Errorf("record payload at offset %d: %v: %w", w.off, err, ErrCorrupt)
	}
	if got := crc32.Checksum(payload, crcTable); got != wantCRC {
		return nil, fmt.Errorf("record CRC %#x (want %#x) at offset %d: %w", got, wantCRC, w.off, ErrCorrupt)
	}
	if err := w.view.parse(payload); err != nil {
		return nil, fmt.Errorf("record at offset %d: %w", w.off, err)
	}
	w.view.off = w.off
	w.off += recFrameSize + length
	return &w.view, nil
}
