package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/logstore"
	"repro/internal/service"
)

// Paper Table 1 geometry: m=128 clock-cycles per trace-cycle, b=16-bit
// timeprints, LI-4 incremental timestamps. Every workload and the fleet
// store share it, so one session encoding serves them all.
const (
	geomM        = 128
	geomB        = 16
	geomDepth    = 4
	frameEntries = 16

	fleetDevices = 16
	fleetFrames  = 8000
	fleetSignal  = "bus"
	// Fleet epochs are Unix microseconds, one frame per millisecond.
	fleetEpoch0  = int64(1_700_000_000_000_000)
	fleetEpochUS = int64(1000)
)

// spec is the encoding every request names.
var spec = service.EncodingSpec{Scheme: "incremental", M: geomM, B: geomB, Depth: geomDepth}

func newEncoding() (*encoding.Encoding, error) {
	return encoding.Incremental(geomM, geomB, geomDepth)
}

// Input streams are derived from the seed through independent PCG
// streams, one per (purpose, index), so any frame can be regenerated
// alone — the answer checks rebuild fleet frames on demand instead of
// holding 128k of them in memory.
const (
	streamFleet = iota + 1
	streamIngest
	streamHot
	streamForensic
	streamReplay
	streamProbe
)

func rngFor(seed int64, stream, index int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(stream)<<40|uint64(index)))
}

// planted is one generated trace-cycle: the signal the benchmark made
// up and the (TP, k) entry the on-chip logger would emit for it.
type planted struct {
	changes []int
	entry   core.LogEntry
}

// plantIn draws k distinct change cycles in [lo, hi).
func plantIn(enc *encoding.Encoding, rng *rand.Rand, k, lo, hi int) planted {
	changes := make([]int, 0, k)
	for len(changes) < k {
		c := lo + rng.IntN(hi-lo)
		if !slices.Contains(changes, c) {
			changes = append(changes, c)
		}
	}
	slices.Sort(changes)
	return planted{changes: changes, entry: core.Log(enc, core.SignalFromChanges(geomM, changes...))}
}

// streamK draws a change count with the stream mix: k = 0/1/2/3 with
// weights .1/.4/.3/.2. k <= 2 has a unique reconstruction under LI-4,
// and the k = 0/1 repeats give the result cache natural hits.
func streamK(rng *rand.Rand) int {
	switch u := rng.Float64(); {
	case u < 0.1:
		return 0
	case u < 0.5:
		return 1
	case u < 0.8:
		return 2
	default:
		return 3
	}
}

// frame is one generated wire-log frame of frameEntries trace-cycles.
type frame struct {
	cycles []planted
	body   []byte
}

func makeFrame(enc *encoding.Encoding, rng *rand.Rand) (frame, error) {
	f := frame{cycles: make([]planted, frameEntries)}
	entries := make([]core.LogEntry, frameEntries)
	for i := range f.cycles {
		f.cycles[i] = plantIn(enc, rng, streamK(rng), 0, geomM)
		entries[i] = f.cycles[i].entry
	}
	var buf bytes.Buffer
	if err := core.WriteLog(&buf, geomM, geomB, entries); err != nil {
		return frame{}, err
	}
	f.body = buf.Bytes()
	return f, nil
}

func fleetDevice(d int) string { return fmt.Sprintf("dev-%02d", d) }

func fleetEpoch(idx int) int64 { return fleetEpoch0 + int64(idx)*fleetEpochUS }

// fleetFrame regenerates frame idx of fleet device d.
func fleetFrame(enc *encoding.Encoding, seed int64, d, idx int) (frame, error) {
	return makeFrame(enc, rngFor(seed, streamFleet, d<<20|idx))
}

// buildFleet writes the shared fleet history into dir through
// logstore.Append: devices × frames records, appended round-robin the
// way a fleet's uploads interleave. It returns the checksum of every
// body written, indexed device*frames+idx, for the /v1/logs checks.
func buildFleet(dir string, seed int64, frames int) ([]uint64, error) {
	enc, err := newEncoding()
	if err != nil {
		return nil, err
	}
	// The store syncs each segment as it seals it, so the fleet is on
	// disk before any timing starts.
	st, _, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		return nil, err
	}
	sums := make([]uint64, fleetDevices*frames)
	for idx := 0; idx < frames; idx++ {
		for d := 0; d < fleetDevices; d++ {
			f, err := fleetFrame(enc, seed, d, idx)
			if err != nil {
				st.Close()
				return nil, err
			}
			if _, err := st.Append(logstore.Record{
				Device: fleetDevice(d), Signal: fleetSignal,
				Epoch: fleetEpoch(idx), TraceCycleBase: int64(idx * frameEntries), Body: f.body,
			}); err != nil {
				st.Close()
				return nil, err
			}
			sums[d*frames+idx] = bodySum(f.body)
		}
	}
	return sums, st.Close()
}

func bodySum(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// copyStore gives dst its own copy of the store in src. The store never
// rewrites a sealed segment, so those are hard-linked, and only the
// last segment, which the daemon appends to, is copied: a cold start
// then writes well under a megabyte instead of the whole store, and no
// writeback of earlier copies runs under a later measurement.
func copyStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src) // sorted by name, so by segment sequence
	if err != nil {
		return err
	}
	for i, e := range ents {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if i < len(ents)-1 {
			err = os.Link(from, to)
		} else {
			err = copyFile(from, to)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
