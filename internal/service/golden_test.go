package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/replies.golden from this build")

// TestRepliesMatchGolden replays one fixed session against a fresh
// server and compares every reply byte for byte with
// testdata/replies.golden: unary reconstruct and count (wire and JSON
// bodies, a cache hit, a SAT-routed property job, an empty log), a
// batch with per-job errors, store queries, and two streams with a
// fatal frame and a clean end. The golden file was recorded before the
// entry replies were written by encode.go's appender instead of by
// encoding/json, so it pins that the wire bytes did not change.
// Regenerate it with -update only for an intended wire change.
func TestRepliesMatchGolden(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	srv, base, _ := startServer(t, Config{Workers: 1, BatchParallelism: 1, Store: st, StreamAddr: "127.0.0.1:0"}, 0)

	const m, b = 128, 16
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(19))
	entries := func(n int) []core.LogEntry {
		out := make([]core.LogEntry, n)
		for i := range out {
			out[i] = core.Log(enc, core.SignalFromChanges(m, r.Perm(m)[:r.Intn(5)]...))
		}
		return out
	}
	wireOf := func(m, b int, es []core.LogEntry) []byte {
		var buf bytes.Buffer
		if err := core.WriteLog(&buf, m, b, es); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	frames := [][]byte{wireOf(m, b, entries(8)), wireOf(m, b, entries(8)), wireOf(m, b, entries(8))}
	frames = append(frames, frames[1]) // a re-sent frame: every entry a cache hit
	small, _ := testLog(t, 16, 9, 3, 7)

	var out bytes.Buffer
	record := func(name string, status int, body []byte) {
		fmt.Fprintf(&out, "### %s %d\n%s", name, status, body)
	}
	post := func(name, path, ct string, body []byte) {
		resp, err := http.Post(base+path, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		record(name, resp.StatusCode, raw)
	}
	const wire = "application/octet-stream"
	const js = "application/json"
	post("reconstruct wire", "/v1/reconstruct?device=golden&signal=s0&epoch_us=1000", wire, frames[0])
	post("reconstruct wire again", "/v1/reconstruct?device=golden&signal=s0&epoch_us=2000", wire, frames[0])
	post("reconstruct wire limit", "/v1/reconstruct?device=golden&signal=s0&epoch_us=3000&limit=2", wire, frames[1])
	post("count wire", "/v1/count", wire, frames[2])
	post("reconstruct empty log", "/v1/reconstruct", wire, wireOf(m, b, nil))
	post("reconstruct properties", "/v1/reconstruct", js, []byte(fmt.Sprintf(
		`{"encoding":{"m":16,"b":9},"log":%q,"properties":"mingap(3)","limit":-1}`, jsonB64(small))))
	post("count inline", "/v1/count", js, []byte(`{"encoding":{"m":16,"b":9},"tp":"000000000","k":0}`))
	post("batch", "/v1/batch", js, []byte(fmt.Sprintf(`{"encoding":{"m":%d,"b":%d},"jobs":[`+
		`{"log":%q},{"tp":"<>&\"","k":1},{"log":%q,"count_only":true},{"log":%q,"cycles":[2,0]},{"tp":"0000000000000000","k":0}]}`,
		m, b, jsonB64(frames[2]), jsonB64(frames[1]), jsonB64(frames[0]))))
	post("query", "/v1/query", js, []byte(`{"device":"golden","signal":"s0","encoding":{"m":128,"b":16}}`))
	post("query count", "/v1/query", js, []byte(`{"device":"golden","signal":"s0","count_only":true,"max_records":2}`))
	post("query window", "/v1/query", js, []byte(`{"device":"golden","signal":"s0","from_epoch_us":1500,"to_epoch_us":2500}`))
	post("query empty", "/v1/query", js, []byte(`{"device":"nobody","signal":"<none>"}`))

	stream := func(name string, hello string, payloads [][]byte) {
		conn, err := net.DialTimeout("tcp", srv.StreamAddr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
		br := bufio.NewReader(conn)
		readLine := func(step string) {
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("%s %s: %v", name, step, err)
			}
			record(name+" "+step, 0, line)
		}
		if _, err := conn.Write([]byte(hello + "\n")); err != nil {
			t.Fatal(err)
		}
		readLine("ack")
		for i, p := range payloads {
			var n [4]byte
			binary.LittleEndian.PutUint32(n[:], uint32(len(p)))
			if _, err := conn.Write(append(n[:], p...)); err != nil {
				t.Fatal(err)
			}
			if len(p) == 0 {
				readLine("end")
				return
			}
			readLine(fmt.Sprintf("frame %d", i))
		}
	}
	stream("stream", `{"device":"golden","signal":"live","encoding":{"m":128,"b":16}}`,
		append(frames[:4:4], []byte("garbage frame")))
	stream("stream count", `{"device":"golden","signal":"count","encoding":{"m":128,"b":16},"count_only":true}`,
		[][]byte{frames[2], frames[0], nil})

	path := filepath.Join("testdata", "replies.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := out.Bytes(), want
		i := 0
		for i < len(got) && i < len(exp) && got[i] == exp[i] {
			i++
		}
		lo := max(i-200, 0)
		t.Fatalf("replies differ from %s at byte %d:\n got: %q\nwant: %q", path, i, got[lo:min(i+200, len(got))], exp[lo:min(i+200, len(exp))])
	}
}
