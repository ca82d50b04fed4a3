// Package service implements timeprintd, the streaming reconstruction
// daemon: a long-running HTTP service that ingests timeprint logs —
// either the bit-exact core.WriteLog wire format or JSON job specs —
// and answers signal-reconstruction queries with the existing
// reconstruct engine.
//
// This is the off-chip backend of the paper's Figure 3 pipeline turned
// into a server: the on-chip logger streams constant-rate (TP, k)
// entries off-chip, and debug clients POST them here for on-demand
// reconstruction instead of running the solver locally.
//
//	POST /v1/reconstruct   enumerate candidate signals for log entries
//	POST /v1/count         count candidate signals (ambiguity probe)
//	POST /v1/compare       diff two wire logs trace-cycle by trace-cycle
//	GET  /healthz          liveness and drain state
//	GET  /metrics(.txt)    live obs.Registry snapshot
//
// The serving discipline is built for sustained heavy traffic:
//
//   - Sessions. Encodings are expensive to generate (the greedy LI-4
//     constructions are O(m³)); a session keyed by the canonical
//     (m, b, encoding, ClockHz/Epoch) tuple builds each encoding once
//     and shares it across requests.
//   - Bounded admission. SAT solves pass through a bounded admission
//     queue; when it is full the server sheds load with 429 and a
//     Retry-After hint instead of collapsing under a convoy.
//   - Deadlines. Every request runs under a deadline that is threaded
//     into the solver as a cooperative sat.Solver.Interrupt, so an
//     adversarial instance cannot pin a worker.
//   - Caching + coalescing. Results are cached in an LRU keyed by a
//     canonical hash of (encoding, m, b, TP, k, properties, limit),
//     and concurrent identical requests coalesce onto one in-flight
//     solve (singleflight), so a thundering herd of equal queries
//     costs exactly one SAT search.
//   - Graceful drain. Shutdown stops accepting, lets in-flight
//     requests finish inside a drain budget, then cancels stragglers.
package service

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/reconstruct"
)

// Metric names published by the service layer.
const (
	// Per-endpoint request counters. MetricReqBatch counts /v1/batch
	// requests (admitted or shed); MetricReqStream counts streaming
	// ingest connections that completed a handshake.
	MetricReqReconstruct = "service.requests.reconstruct"
	MetricReqCount       = "service.requests.count"
	MetricReqCompare     = "service.requests.compare"
	MetricReqBatch       = "service.requests.batch"
	MetricReqStream      = "service.requests.stream"
	// MetricShed counts requests rejected with 429 because the
	// admission queue was full; MetricTimeouts counts solves stopped by
	// a request deadline (mapped to 504).
	MetricShed     = "service.http.shed"
	MetricTimeouts = "service.http.timeouts"
	MetricErrors   = "service.http.errors"
	// Admission-control gauges: queued solves waiting for a worker slot
	// and solves currently running (Max is peak concurrency).
	MetricQueueDepth = "service.queue.depth"
	MetricSolveBusy  = "service.solve.busy"
	// Cache counters: lookups served from the LRU, misses that led a
	// solve, entries evicted by capacity, and requests that coalesced
	// onto another request's in-flight solve.
	MetricCacheHits    = "service.cache.hits"
	MetricCacheMisses  = "service.cache.misses"
	MetricCacheEvicted = "service.cache.evicted"
	MetricCoalesced    = "service.coalesced"
	// MetricSolves counts SAT solves actually executed (cache misses
	// that won the singleflight race); MetricSessions counts live
	// sessions.
	MetricSolves   = "service.solves"
	MetricSessions = "service.sessions"
	// Incremental-session counters, published by the per-spec
	// reconstruct.SessionOracle's pool of warm sessions: reuse counts
	// solves run on a pooled warm session; clone counts solves that
	// found the pool empty, so a new session was cloned from the
	// prototype and kept. Admission caps concurrent solves at Workers,
	// so clone stays at or below Workers per spec unless sessions are
	// retired for growth. The aliases keep the service's documented
	// names stable. MetricSessionFallback counts solves routed to the
	// session that it could not express (unsupported k, constraint the
	// session cannot guard) and were re-run on one-shot SAT.
	MetricSessionReuse    = reconstruct.MetricOracleSessionReuse
	MetricSessionClone    = reconstruct.MetricOracleSessionClone
	MetricSessionFallback = "service.session.fallback"
	// SpanSolve times the solve path (queue wait excluded); SpanRequest
	// times whole requests including queueing and serialization.
	SpanSolve   = "service.solve"
	SpanRequest = "service.request"
	// Batch counters: jobs and solve entries processed by admitted
	// batches, and batches rejected atomically because their entry
	// count did not fit the admission queue (also counted by
	// MetricShed). SpanBatch times whole /v1/batch requests.
	MetricBatchJobs    = "service.batch.jobs"
	MetricBatchEntries = "service.batch.entries"
	MetricBatchShed    = "service.batch.shed"
	SpanBatch          = "service.batch"
	// MetricEncodingBuilds counts session encodings actually
	// constructed — the amortization witness: a batch of N jobs (or a
	// whole stream) against one spec moves it by exactly 1.
	MetricEncodingBuilds = "service.encoding.builds"
	// Streaming-ingest counters: frames and entries accepted, and
	// frames answered with a per-frame error (shed, deadline, solver
	// budget). SpanStreamFrame times frame turnarounds.
	MetricStreamFrames      = "service.stream.frames"
	MetricStreamEntries     = "service.stream.entries"
	MetricStreamFrameErrors = "service.stream.frame_errors"
	SpanStreamFrame         = "service.stream.frame"
	// Durable log store integration (store.go): wire logs teed into
	// Config.Store after successful ingest, tee failures (counted, never
	// failing the serving request), and the forensic endpoints'
	// request counters.
	MetricStoreTees      = "service.store.tees"
	MetricStoreTeeErrors = "service.store.tee_errors"
	MetricReqLogs        = "service.requests.logs"
	MetricReqQuery       = "service.requests.query"
)

// Config tunes a Server. The zero value serves on an ephemeral port
// with sensible production defaults.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// QueueDepth bounds how many solves may wait for a worker slot
	// before the server sheds load with 429 (default 64).
	QueueDepth int
	// Workers bounds concurrently running solves (default GOMAXPROCS).
	Workers int
	// CacheSize is the LRU result-cache capacity in entries
	// (default 1024).
	CacheSize int
	// DefaultTimeout is the per-request solve deadline when the request
	// does not set one (default 10s); MaxTimeout caps what a request
	// may ask for (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxConflicts is a server-side cap on solver effort per solve;
	// 0 means unlimited.
	MaxConflicts int64
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown: after SIGTERM, in-flight
	// requests get this long to finish before being cancelled
	// (default 15s).
	DrainTimeout time.Duration
	// MaxSessions bounds the session table (default 256); least
	// recently used sessions are evicted beyond it.
	MaxSessions int
	// SessionMaxK caps the change counts the incremental per-session
	// solver encodes its cardinality ladder for (default 16); entries
	// with larger k fall back to a one-shot instance.
	SessionMaxK int
	// MaxBatchJobs bounds the jobs one /v1/batch request may carry
	// (default 256); BatchParallelism bounds how many of a batch's
	// entries solve concurrently (default Workers). Note the whole
	// batch's entry count must also fit the admission queue
	// (QueueDepth) or the batch is shed atomically with 429.
	MaxBatchJobs     int
	BatchParallelism int
	// StreamAddr, when non-empty, serves the length-prefixed TCP
	// streaming-ingest protocol (see stream.go) on this address
	// alongside the HTTP listener.
	StreamAddr string
	// MaxStreams bounds the per-(device,signal) stream-session table
	// (default 4096).
	MaxStreams int
	// Oracle pins every solve to one reconstruction backend ("sat",
	// "sat-inc", "decode", "brute"). "" or "auto" (the
	// default) lets the dispatcher's cost model route each request to
	// the cheapest sound backend.
	Oracle string
	// Store, when non-nil, is the durable log store (internal/logstore)
	// the server tees ingested wire logs into and serves GET /v1/logs
	// and POST /v1/query from. The store is caller-owned: the caller
	// opens it (handling recovery reports) and closes it after
	// Shutdown.
	Store *logstore.Store
	// Obs receives the service metrics; nil disables instrumentation
	// (every layer below tolerates that).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionMaxK <= 0 {
		c.SessionMaxK = 16
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 256
	}
	if c.BatchParallelism <= 0 {
		c.BatchParallelism = c.Workers
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 4096
	}
	return c
}

// Server is a live timeprintd instance. Construct with New, then
// either Start/Shutdown for embedding or Run for the daemon shape.
type Server struct {
	cfg      Config
	obs      *obs.Registry
	sessions *sessionTable
	cache    *lruCache
	flight   *flightGroup
	admit    *admission
	store    *logstore.Store

	http     *http.Server
	listener net.Listener
	ready    chan struct{}
	draining atomic.Bool

	// Streaming-ingest state (stream.go): the TCP listener bound when
	// Config.StreamAddr is set, the per-(device,signal) stream-session
	// table, and the live-connection tracking Shutdown uses to wake and
	// drain blocked frame reads.
	streamLn    net.Listener
	streams     *streamTable
	streamMu    sync.Mutex
	streamConns map[net.Conn]struct{}
	streamWG    sync.WaitGroup

	// solveDelay stretches every solve; tests use it to hold requests
	// in flight deterministically. Zero in production.
	solveDelay time.Duration
}

// New builds a server from cfg. It does not bind the listener yet.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		obs:      cfg.Obs,
		sessions: newSessionTable(cfg.MaxSessions, cfg.Obs),
		cache:    newLRUCache(cfg.CacheSize, cfg.Obs),
		flight:   newFlightGroup(),
		admit:    newAdmission(cfg.QueueDepth, cfg.Workers, cfg.Obs),
		store:    cfg.Store,
		ready:    make(chan struct{}),

		streams:     newStreamTable(cfg.MaxStreams),
		streamConns: make(map[net.Conn]struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reconstruct", s.handleReconstruct)
	mux.HandleFunc("POST /v1/count", s.handleCount)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	if s.store != nil {
		mux.HandleFunc("GET /v1/logs", s.handleStoreLogs)
		mux.HandleFunc("POST /v1/query", s.handleStoreQuery)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.Obs != nil {
		h := obs.Handler(cfg.Obs)
		mux.Handle("GET /metrics", h)
		mux.Handle("GET /metrics.txt", h)
	}
	s.http = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler exposes the service mux (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.http.Handler }

// Start binds the listener(s) and serves in a background goroutine. It
// returns the bound HTTP address once the server is accepting
// connections; when Config.StreamAddr is set the streaming-ingest TCP
// listener is bound too (see StreamAddr for its bound address).
func (s *Server) Start() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen %s: %w", s.cfg.Addr, err)
	}
	s.listener = ln
	if s.cfg.StreamAddr != "" {
		sln, err := net.Listen("tcp", s.cfg.StreamAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("service: stream listen %s: %w", s.cfg.StreamAddr, err)
		}
		s.streamLn = sln
		go s.serveStream(sln)
	}
	close(s.ready)
	go func() {
		// ErrServerClosed is the normal shutdown outcome.
		_ = s.http.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Ready is closed once the listener is bound.
func (s *Server) Ready() <-chan struct{} { return s.ready }

// Addr returns the bound address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// StreamAddr returns the bound streaming-ingest address (nil before
// Start or when Config.StreamAddr is unset).
func (s *Server) StreamAddr() net.Addr {
	if s.streamLn == nil {
		return nil
	}
	return s.streamLn.Addr()
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server gracefully: the listener closes, idle
// connections are torn down, and in-flight requests get until ctx's
// deadline to finish; after that the remaining connections are closed
// hard, which cancels their request contexts and — through
// InterruptOnDone — interrupts any solver still searching.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	streamErr := s.shutdownStream(ctx)
	if err := s.http.Shutdown(ctx); err != nil {
		closeErr := s.http.Close()
		return fmt.Errorf("service: drain incomplete (%w), connections closed (close: %v)", err, closeErr)
	}
	return streamErr
}

// Run is the daemon main loop: Start, then serve until ctx is
// cancelled (the caller wires SIGTERM/SIGINT into ctx via
// signal.NotifyContext), then drain within Config.DrainTimeout. It
// returns nil on a clean drain.
func (s *Server) Run(ctx context.Context) error {
	if _, err := s.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(dctx)
}
