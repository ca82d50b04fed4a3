package service

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Streaming ingest: the persistent-connection counterpart of /v1/batch
// for the paper's continuous-logging deployment. A device-side agent
// holds one TCP connection per traced signal and pushes core.WriteLog
// frames as the on-chip logger drains; the server appends each frame
// into a per-(device, signal) stream session whose encoding is built
// once and whose warm incremental solver answers every frame.
//
// Wire protocol (all JSON lines are '\n'-terminated):
//
//	client → hello line   {"device","signal","encoding",...}
//	server → ack line     {"state":"ok","m","b","next_trace_cycle"}
//	repeat:
//	  client → frame      uint32 LE length, then a complete WriteLog
//	  server → line       {"frame","trace_cycle_base","results":[...]}
//	                      or {"frame","status","error"}
//	client → zero length  clean end of stream
//	server → line         {"state":"done","frames","entries"}
//
// Control lines carry a "state" string ("ok", "error", "done",
// "draining"); per-frame replies carry no state and an integer
// "status" only on failure — StreamMsg (streamclient.go) is the
// client-side union of all of them.
//
// Capacity: the stream table holds at most Config.MaxStreams streams,
// and a stream with a live connection is never evicted. A hello for a
// new stream while all of them are live is refused with a 503 "stream
// table full" error line, not queued: the table cannot overflow its
// bound, and the client retries once a stream ends.
//
// Replies: frame replies are written by the entry-result appender
// (encode.go) into one buffer reused across the connection's frames;
// their bytes are what encoding/json writes for streamFrameReply.
// Control lines go through encoding/json.
//
// Failure discipline: a corrupt frame (bad length, core.ErrCorrupt,
// geometry mismatch) answers 400 and closes the connection — the
// stream's trace-cycle accounting cannot be trusted past it. Transient
// solve failures (shed, deadline, solver budget) answer an error line
// but keep the connection open, and the stream position does NOT
// advance: the client re-sends the frame. During drain the server
// answers {"state":"draining"} and closes; the stream position
// survives in the session table, so a reconnect resumes where the
// stream left off.

// StreamHello is the connection's opening JSON line. The encoding must
// be fully explicit (there is no request body to borrow m and b from —
// frames are validated against it instead).
type StreamHello struct {
	Device     string       `json:"device"`
	Signal     string       `json:"signal"`
	Encoding   EncodingSpec `json:"encoding"`
	Properties string       `json:"properties,omitempty"`
	// Limit and CountOnly apply to every entry of every frame.
	Limit     int  `json:"limit,omitempty"`
	CountOnly bool `json:"count_only,omitempty"`
	// TimeoutMS bounds each frame's solve work (capped by MaxTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// streamState is the durable per-(device, signal) position: where the
// stream's trace-cycle counter stands and which spec it is pinned to.
// It outlives connections (bounded LRU) so reconnects resume counting.
type streamState struct {
	specKey string
	nextTC  int
	busy    bool
}

// streamTable maps (device, signal) to stream positions. At most one
// live connection may hold a stream (busy); idle streams are evicted
// LRU beyond max. Busy streams are never evicted, so when all max
// streams are busy a new stream is refused (errStreamTableFull) rather
// than let the table grow past its bound.
type streamTable struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element
}

type streamEntry struct {
	key string
	st  *streamState
}

// errStreamTableFull refuses a new stream while every stream the table
// may hold has a live connection; the hello is answered 503.
var errStreamTableFull = errors.New("stream table full")

func newStreamTable(max int) *streamTable {
	return &streamTable{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// claim acquires exclusive use of the (device, signal) stream for one
// connection, creating it on first use. A stream already claimed by a
// live connection, or previously pinned to a different spec, is
// refused; so is a new stream when the table is full of busy ones.
func (t *streamTable) claim(device, signal, specKey string) (*streamState, error) {
	key := device + "\x00" + signal
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		st := el.Value.(*streamEntry).st
		if st.busy {
			return nil, fmt.Errorf("stream %s/%s already has a live connection", device, signal)
		}
		if st.specKey != specKey {
			return nil, fmt.Errorf("stream %s/%s is pinned to a different encoding spec", device, signal)
		}
		st.busy = true
		t.ll.MoveToFront(el)
		return st, nil
	}
	if t.ll.Len() >= t.max {
		// Evict the least recently used idle stream; busy ones keep
		// their position for their connection.
		el := t.ll.Back()
		for el != nil && el.Value.(*streamEntry).st.busy {
			el = el.Prev()
		}
		if el == nil {
			return nil, errStreamTableFull
		}
		t.ll.Remove(el)
		delete(t.items, el.Value.(*streamEntry).key)
	}
	st := &streamState{specKey: specKey, busy: true}
	t.items[key] = t.ll.PushFront(&streamEntry{key: key, st: st})
	return st, nil
}

// release returns a claimed stream to the table for a later reconnect.
func (t *streamTable) release(device, signal string) {
	key := device + "\x00" + signal
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		el.Value.(*streamEntry).st.busy = false
	}
}

// serveStream is the accept loop on the streaming listener.
func (s *Server) serveStream(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed: either Shutdown or a fatal accept error;
			// both end the loop.
			return
		}
		if s.Draining() {
			_ = writeStreamLine(conn, map[string]string{"state": "draining"})
			conn.Close()
			continue
		}
		s.streamMu.Lock()
		s.streamConns[conn] = struct{}{}
		s.streamMu.Unlock()
		s.streamWG.Add(1)
		go func() {
			defer s.streamWG.Done()
			defer func() {
				s.streamMu.Lock()
				delete(s.streamConns, conn)
				s.streamMu.Unlock()
				conn.Close()
			}()
			s.handleStreamConn(conn)
		}()
	}
}

// shutdownStream drains the streaming side: stop accepting, wake every
// connection blocked waiting for its next frame (an expired read
// deadline surfaces as a read error; the handler sees Draining and
// says goodbye), then wait for handlers — in-flight frames finish
// their solves — within ctx, force-closing whatever remains.
func (s *Server) shutdownStream(ctx context.Context) error {
	if s.streamLn == nil {
		return nil
	}
	s.streamLn.Close()
	s.streamMu.Lock()
	for conn := range s.streamConns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.streamMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.streamWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.streamMu.Lock()
		for conn := range s.streamConns {
			conn.Close()
		}
		s.streamMu.Unlock()
		<-done
		return fmt.Errorf("service: stream drain incomplete: %w", ctx.Err())
	}
}

// maxStreamLineBytes bounds the hello line; frame payloads are bounded
// by Config.MaxBodyBytes like HTTP bodies.
const maxStreamLineBytes = 1 << 20

func writeStreamLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// streamFrameReply is the server's per-frame JSON line.
type streamFrameReply struct {
	Frame          int             `json:"frame"`
	Status         int             `json:"status,omitempty"`
	Error          string          `json:"error,omitempty"`
	TraceCycleBase int             `json:"trace_cycle_base,omitempty"`
	Results        []entryResponse `json:"results,omitempty"`
}

// handleStreamConn speaks the stream protocol on one connection.
func (s *Server) handleStreamConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	fail := func(code int, format string, args ...any) {
		_ = writeStreamLine(conn, map[string]any{"state": "error", "status": code, "error": fmt.Sprintf(format, args...)})
	}

	// Handshake.
	line, err := readStreamLine(br)
	if err != nil {
		fail(http.StatusBadRequest, "hello: %v", err)
		return
	}
	var hello StreamHello
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hello); err != nil {
		fail(http.StatusBadRequest, "hello: %v", err)
		return
	}
	if hello.Device == "" || hello.Signal == "" {
		fail(http.StatusBadRequest, "hello needs device and signal")
		return
	}
	spec, err := resolveSpec(hello.Encoding, nil)
	var opts solveOpts
	if err == nil {
		opts, err = planOpts(hello.Properties, hello.Limit, hello.CountOnly)
	}
	if err != nil {
		code, msg := errorStatus(err)
		fail(code, "%s", msg)
		return
	}

	st, err := s.streams.claim(hello.Device, hello.Signal, spec.key())
	if errors.Is(err, errStreamTableFull) {
		fail(http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		fail(http.StatusConflict, "%v", err)
		return
	}
	defer s.streams.release(hello.Device, hello.Signal)
	sess := s.sessions.get(spec)
	s.obs.Counter(MetricReqStream).Inc()
	if err := writeStreamLine(conn, map[string]any{
		"state": "ok", "m": spec.M, "b": spec.B, "next_trace_cycle": st.nextTC,
	}); err != nil {
		return
	}

	// Frame loop. Replies are appended into one buffer reused across
	// the connection's frames.
	frames, entries := 0, 0
	var out []byte
	for {
		payload, err := readFrame(br, s.cfg.MaxBodyBytes)
		if err != nil {
			if s.Draining() {
				_ = writeStreamLine(conn, map[string]string{"state": "draining"})
				return
			}
			if !errors.Is(err, io.EOF) {
				s.obs.Counter(MetricStreamFrameErrors).Inc()
				fail(http.StatusBadRequest, "frame %d: %v", frames, err)
			}
			return
		}
		if payload == nil { // zero-length frame: clean end of stream
			_ = writeStreamLine(conn, map[string]any{
				"state": "done", "frames": frames, "entries": entries,
			})
			return
		}
		reply, n, fatal := s.solveStreamFrame(hello, spec, sess, st, frames, payload, opts)
		entries += n
		if cap(out) > maxPooledResp {
			out = nil
		}
		out = append(reply.appendJSON(out[:0]), '\n')
		if _, err := conn.Write(out); err != nil {
			return
		}
		if fatal {
			return
		}
		frames++
	}
}

// solveStreamFrame ingests one WriteLog frame into the stream through
// the job planner: decode, validate against the pinned spec, solve
// every entry in order from the stream position. A frame that fails
// to decode or does not fit the spec is fatal: the stream's
// trace-cycle accounting cannot be trusted past it. A solve error is
// transient, and the stream position advances only when the whole
// frame succeeds, so a client can blindly re-send (the cache makes
// replayed entries nearly free) — and only then is the frame teed into
// the durable store, under the hello's (device, signal) and its stream
// position, so re-sends never store twice.
func (s *Server) solveStreamFrame(hello StreamHello, spec EncodingSpec, sess *session, st *streamState, frame int, payload []byte, opts solveOpts) (reply streamFrameReply, entries int, fatal bool) {
	defer s.obs.StartSpan(SpanStreamFrame).End()
	reply = streamFrameReply{Frame: frame}
	wire, err := decodeWire(payload)
	var items []workItem
	if err != nil {
		err = badRequest("wire log: %v", err)
	} else {
		items, err = planItems(spec, jobSpec{}, wire)
	}
	if err != nil {
		s.obs.Counter(MetricStreamFrameErrors).Inc()
		reply.Status, reply.Error = errorStatus(err)
		return reply, 0, true
	}

	ctx, cancel := context.WithTimeout(context.Background(), s.timeout(hello.TimeoutMS))
	defer cancel()
	base := st.nextTC
	results, err := s.runItems(ctx, sess, items, opts, base)
	if err != nil {
		// Transient: report, and leave nextTC where it was so a re-send
		// is exact.
		s.obs.Counter(MetricStreamFrameErrors).Inc()
		reply.Status, reply.Error = errorStatus(err)
		return reply, 0, false
	}
	reply.TraceCycleBase, reply.Results = base, results
	st.nextTC = base + len(items)
	s.storeTee(hello.Device, hello.Signal, 0, int64(base), payload)
	s.obs.Counter(MetricStreamFrames).Inc()
	s.obs.Counter(MetricStreamEntries).Add(int64(len(items)))
	return reply, len(items), false
}

// readStreamLine reads one '\n'-terminated line with a hard size cap.
func readStreamLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		line = append(line, chunk...)
		if err == nil {
			return bytes.TrimRight(line, "\r\n"), nil
		}
		if err == bufio.ErrBufferFull {
			if len(line) > maxStreamLineBytes {
				return nil, fmt.Errorf("line exceeds %d bytes", maxStreamLineBytes)
			}
			continue
		}
		return nil, err
	}
}

// readFrame reads one length-prefixed frame. A zero length returns
// (nil, nil): the clean end-of-stream marker.
func readFrame(br *bufio.Reader, maxBytes int64) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 {
		return nil, nil
	}
	if int64(n) > maxBytes {
		return nil, fmt.Errorf("frame length %d exceeds cap %d", n, maxBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("short frame: %v", err)
	}
	return payload, nil
}
