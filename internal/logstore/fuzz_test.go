package logstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzSegment drives the segment record framer and the walker, the
// store's one record reader, with arbitrary bytes: the walker must
// never panic, must decode only what frameRecord(encodeRecord(...))
// produced, and a re-encode of every decoded record must be
// byte-identical to the frame it came from (the store's
// byte-identical-replay guarantee rests on this).
//
// The corpus is seeded from the crash-recovery matrix: a clean
// segment, a torn final record, a cut CRC, a zero-filled tail, and a
// duplicated record, plus adversarial length fields.
func FuzzSegment(f *testing.F) {
	// A small real segment body (header excluded — the fuzz input is
	// the record region), built from two valid records.
	mkBody := func(recs ...Record) []byte {
		var buf bytes.Buffer
		for _, r := range recs {
			buf.Write(frameRecord(encodeRecord(r)))
		}
		return buf.Bytes()
	}
	wire := func(seed byte) []byte {
		// A hand-rolled minimal wire log: a 16-byte header (m, b, n=0)
		// is a valid, self-delimiting core frame; m varies per seed so
		// bodies are distinguishable.
		b := make([]byte, 16)
		binary.LittleEndian.PutUint32(b[0:], 0x54505231)
		binary.LittleEndian.PutUint32(b[4:], uint32(seed%24+1))
		binary.LittleEndian.PutUint32(b[8:], 4)
		binary.LittleEndian.PutUint32(b[12:], 0)
		return b
	}
	r1 := Record{Device: "ecu-a", Signal: "sig", Epoch: 100, TraceCycleBase: 0, Body: wire(1)}
	r2 := Record{Device: "ecu-b", Signal: "sig2", Epoch: 200, TraceCycleBase: 64, Body: wire(2)}
	clean := mkBody(r1, r2)
	f.Add(clean)
	f.Add(clean[:len(clean)-5])                                    // torn final record
	f.Add(clean[:len(clean)-len(wire(2))-9])                       // cut inside the CRC/frame
	f.Add(append(append([]byte{}, clean...), make([]byte, 64)...)) // zero-filled tail
	f.Add(mkBody(r1, r1))                                          // duplicated record
	f.Add([]byte{})                                                // empty segment
	adversarial := make([]byte, 8)
	binary.LittleEndian.PutUint32(adversarial[0:], 0xFFFFFFFF) // huge length
	f.Add(adversarial)

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRecord = 1 << 20
		var decoded []Record
		var offs []int64
		w := newWalker(bytes.NewReader(data), segHeaderSize, segHeaderSize+int64(len(data)), maxRecord)
		defer w.release()
		var err error
		for {
			var v *recordView
			if v, err = w.next(); v == nil {
				break
			}
			decoded = append(decoded, Record{
				Device: string(v.device), Signal: string(v.signal),
				Epoch: v.epoch, TraceCycleBase: v.base,
				Body: append([]byte(nil), v.body...),
			})
			offs = append(offs, v.off)
			if !bytes.Equal(v.key, keyBytes(string(v.device), string(v.signal))) {
				t.Fatalf("record %d: key bytes disagree with its names", len(decoded)-1)
			}
		}
		off := w.off
		if off < segHeaderSize || off > segHeaderSize+int64(len(data)) {
			t.Fatalf("reported offset %d outside segment bounds", off)
		}
		// Everything decoded must round-trip byte-identically: the
		// reader only accepts frames the writer could have produced.
		for i, rec := range decoded {
			if rec.Device == "" || rec.Signal == "" || len(rec.Body) == 0 {
				t.Fatalf("record %d decoded with empty required field", i)
			}
			reframed := frameRecord(encodeRecord(rec))
			start := offs[i] - segHeaderSize
			end := start + int64(len(reframed))
			if end > int64(len(data)) || !bytes.Equal(reframed, data[start:end]) {
				t.Fatalf("record %d does not re-encode to its source bytes", i)
			}
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("walk error is not typed corruption: %v", err)
		}
		// A clean walk consumed frames exactly to the reported offset;
		// a corrupt one stopped at the damage. Either way the offset
		// must be a frame boundary consistent with what was decoded.
		consumed := int64(0)
		for _, rec := range decoded {
			consumed += int64(recFrameSize + len(encodeRecord(rec)))
		}
		if off != segHeaderSize+consumed {
			t.Fatalf("offset %d disagrees with %d decoded records (%d bytes)", off, len(decoded), consumed)
		}
	})
}
