package service

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/obs"
)

// frameBench is one stream connection's serve path outside the
// network: a server, a claimed stream and the frames to push through
// solveStreamFrame and the reply encoder.
type frameBench struct {
	srv    *Server
	hello  StreamHello
	spec   EncodingSpec
	sess   *session
	st     *streamState
	opts   solveOpts
	frames [][]byte
	out    []byte
	n      int
}

// newFrameBench builds the stream-ingest geometry (m=128, b=16
// incremental LI-4) and 512 distinct 16-entry frames with k = 0/1/2/3
// at weights .1/.4/.3/.2, so most entries miss the result cache, then
// pushes every frame once to build the encoding and the decoder's pair
// index.
func newFrameBench(tb testing.TB) *frameBench {
	tb.Helper()
	const m, b = 128, 16
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	fb := &frameBench{srv: New(Config{Workers: 1, Obs: obs.NewRegistry()}), hello: StreamHello{Device: "bench", Signal: "sig", Encoding: EncodingSpec{M: m, B: b}}}
	for f := 0; f < 512; f++ {
		entries := make([]core.LogEntry, 16)
		for i := range entries {
			k := 3
			switch u := r.Float64(); {
			case u < 0.1:
				k = 0
			case u < 0.5:
				k = 1
			case u < 0.8:
				k = 2
			}
			entries[i] = core.Log(enc, core.SignalFromChanges(m, r.Perm(m)[:k]...))
		}
		var buf bytes.Buffer
		if err := core.WriteLog(&buf, m, b, entries); err != nil {
			tb.Fatal(err)
		}
		fb.frames = append(fb.frames, buf.Bytes())
	}
	if fb.spec, err = resolveSpec(fb.hello.Encoding, nil); err != nil {
		tb.Fatal(err)
	}
	if fb.opts, err = planOpts("", 0, false); err != nil {
		tb.Fatal(err)
	}
	fb.sess = fb.srv.sessions.get(fb.spec)
	fb.st = &streamState{specKey: fb.spec.key(), busy: true}
	for range fb.frames {
		fb.frame(tb)
	}
	return fb
}

// frame serves the next frame and encodes its reply line, as the
// connection's frame loop does.
func (fb *frameBench) frame(tb testing.TB) {
	reply, _, fatal := fb.srv.solveStreamFrame(fb.hello, fb.spec, fb.sess, fb.st, fb.n, fb.frames[fb.n%len(fb.frames)], fb.opts)
	if fatal || reply.Status != 0 {
		tb.Fatalf("frame %d: status %d: %s", fb.n, reply.Status, reply.Error)
	}
	fb.out = append(reply.appendJSON(fb.out[:0]), '\n')
	fb.n++
}

// BenchmarkStreamFrame measures one 16-entry stream frame from payload
// to reply bytes: wire decode, planning, per-entry cache key, cache and
// singleflight, the routed decode, candidate rendering and the reply
// encoding. TestStreamFrameAllocs pins its allocation count.
func BenchmarkStreamFrame(b *testing.B) {
	fb := newFrameBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.frame(b)
	}
}

// TestStreamFrameAllocs pins BenchmarkStreamFrame's allocations per
// frame, the measured count (280) plus a little headroom. The frames
// cycle through a cache smaller than their entries, so the count is an
// average over hits and misses; allocation counts are deterministic,
// so the ceiling guards the path where wall clock is too noisy to.
func TestStreamFrameAllocs(t *testing.T) {
	fb := newFrameBench(t)
	if got := testing.AllocsPerRun(512, func() { fb.frame(t) }); got > 300 {
		t.Errorf("stream frame: %.0f allocs, ceiling 300", got)
	} else {
		t.Logf("stream frame: %.0f allocs", got)
	}
}
