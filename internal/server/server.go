// Package server implements the hardened streaming SPARQL-over-HTTP
// endpoint behind cmd/wdserve. The /sparql resource speaks the SPARQL
// protocol (GET and POST) and streams SPARQL-JSON or TSV results
// straight off the zero-decode PreparedQuery.Rows iterator — the first
// response bytes are on the wire before the enumeration has produced a
// row. Robustness is structural, not bolted on:
//
//   - Admission control: a semaphore gate bounds concurrently executing
//     queries and a bounded wait queue absorbs bursts; everything beyond
//     is shed with 503 + Retry-After, so overload keeps the served p99
//     bounded instead of queuing unboundedly.
//   - Per-request deadline, row limit and offset are parsed from the
//     request and enforced through http.Request.Context() — the stream
//     stops at the next yield boundary and the response is closed as a
//     valid (truncated) document.
//   - Write-deadline handling: every flush arms a write deadline, so a
//     stalled client surfaces as a write error that cancels its
//     enumeration instead of pinning a gate slot forever.
//   - Per-request panic isolation: a panicking evaluation becomes a 500
//     (or an aborted stream) plus a counter, never a crashed process.
//   - Graceful drain: Shutdown flips /readyz, stops accepting, drains
//     in-flight requests up to the caller's deadline, then hard-cancels
//     the rest through the server's base context. No goroutine leaks.
//   - Hot reload: when serving from a snapshot, POST /reload swaps in a
//     freshly loaded engine atomically; in-flight requests finish on the
//     generation they started with and the old backing closes only when
//     its last request completes (see engine.go).
//
// /healthz, /readyz and /stats expose liveness, drain state and the
// serving counters (cache hit rate, in-flight, shed count, rows
// streamed, backend shape, snapshot identity). See DESIGN.md §5 for
// the full lifecycle.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wdsparql"
)

// Config parameterises a Server. Engine is required; every other field
// has a serving-safe default (see the constants below).
type Config struct {
	Engine *wdsparql.Engine

	// Snapshot serving and hot reload (all optional; see engine.go).
	// Snapshot describes the image behind Engine for /stats; Closer is
	// the image's backing resources, closed when the engine generation
	// retires; Reload, when set, enables POST /reload and must return a
	// fresh engine (with a fresh query cache) over a re-read snapshot.
	Snapshot *SnapshotStats
	Closer   io.Closer
	Reload   func() (*wdsparql.Engine, *SnapshotStats, io.Closer, error)

	// Admission control.
	MaxConcurrent int           // gate width: queries executing at once (default 8)
	MaxQueue      int           // bounded wait queue beyond the gate (default = MaxConcurrent)
	QueueTimeout  time.Duration // max wait in the queue before shedding (default 1s)
	RetryAfter    time.Duration // Retry-After hint on 503 responses (default 1s)

	// Per-request execution bounds.
	DefaultTimeout time.Duration // deadline when the request names none (default 30s)
	MaxTimeout     time.Duration // cap on the ?timeout= parameter (default 5m)
	MaxLimit       int           // cap on rows per request; 0 means unlimited
	MaxWorkers     int           // cap on the ?workers= parameter (default GOMAXPROCS)

	// Streaming.
	WriteTimeout time.Duration // write deadline armed at every flush (default 15s)
	FlushEvery   int           // rows between flushes after the prologue (default 256)

	// Request reading.
	MaxQueryBytes int64 // bound on a POSTed query body (default 1 MiB)

	// Live ingest (POST /ingest; see ingest.go).
	IngestBatch    int   // triples per atomically applied batch (default 5000)
	RefreezeAt     int   // overlay size that triggers a re-freeze (default 50000; < 0 disables)
	MaxIngestBytes int64 // bound on a POSTed ingest body (default 1 GiB)
}

const (
	defaultMaxConcurrent  = 8
	defaultQueueTimeout   = time.Second
	defaultRetryAfter     = time.Second
	defaultRequestTimeout = 30 * time.Second
	defaultMaxTimeout     = 5 * time.Minute
	defaultWriteTimeout   = 15 * time.Second
	defaultFlushEvery     = 256
	defaultMaxQueryBytes  = 1 << 20
	defaultIngestBatch    = 5000
	defaultRefreezeAt     = 50000
	defaultMaxIngestBytes = 1 << 30
)

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = defaultMaxConcurrent
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = cfg.MaxConcurrent
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = defaultQueueTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = defaultRequestTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = defaultMaxTimeout
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = defaultFlushEvery
	}
	if cfg.MaxQueryBytes <= 0 {
		cfg.MaxQueryBytes = defaultMaxQueryBytes
	}
	if cfg.IngestBatch <= 0 {
		cfg.IngestBatch = defaultIngestBatch
	}
	if cfg.RefreezeAt == 0 {
		cfg.RefreezeAt = defaultRefreezeAt
	}
	if cfg.MaxIngestBytes <= 0 {
		cfg.MaxIngestBytes = defaultMaxIngestBytes
	}
	return cfg
}

// Server is the endpoint: an http.Handler plus the serve/drain
// lifecycle around it. Construct with New; a Server must not be copied.
type Server struct {
	cfg Config
	cur atomic.Pointer[engineState] // current engine generation (see engine.go)
	adm *admission
	mux *http.ServeMux

	http       *http.Server
	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining atomic.Bool
	inflight sync.WaitGroup // running /sparql and /ingest handlers
	started  time.Time
	stopOnce sync.Once  // drops the holder's engine reference at Shutdown
	mutMu    sync.Mutex // the single writer lock: serialises /reload and /ingest

	// Serving counters, exposed by /stats.
	queries      atomic.Uint64 // admitted query executions
	rowsStreamed atomic.Uint64
	shed         atomic.Uint64 // 503s: overload or drain
	rejected     atomic.Uint64 // 4xx: malformed or not well-designed
	panics       atomic.Uint64 // recovered evaluation panics
	timeouts     atomic.Uint64 // request deadlines expired mid-stream
	writeStalls  atomic.Uint64 // streams cut by write deadline/client loss
	reloads      atomic.Uint64 // successful POST /reload swaps
	reloadFails  atomic.Uint64 // POST /reload attempts that kept the old engine
	inFlight     atomic.Int64
	peakInFlight atomic.Int64

	// Live-ingest counters (POST /ingest, see ingest.go).
	ingestBatches atomic.Uint64 // delta batches applied (each one atomic)
	ingestTriples atomic.Uint64 // triples actually added (duplicates excluded)
	refreezes     atomic.Uint64 // overlay compactions swapped in
	refreezeFails atomic.Uint64 // re-freeze attempts that kept the overlay

	// hookBeforeStream, when set, runs inside the per-request panic
	// guard just before streaming starts — the test seam for panic
	// isolation and latency injection. Never set in production.
	hookBeforeStream func(query string)
}

// New builds a Server over the engine in cfg. The engine's graph is
// already sealed (NewEngine freezes or shards it); the server only
// reads it, so any number of concurrent requests are safe.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("server: Config.Engine is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	// The snapshot backing (if any) is shared by every generation the
	// live-write path derives from this one, so it closes only when the
	// last generation referencing it retires — hence the refcount.
	var closer io.Closer
	if cfg.Closer != nil {
		closer = newRefCloser(cfg.Closer)
	}
	s.cur.Store(newEngineState(cfg.Engine, cfg.Snapshot, closer))
	s.mux.HandleFunc("/sparql", s.handleSparql)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.http = &http.Server{
		Handler: s.mux,
		// Request contexts derive from the base context, which is the
		// hard-cancel lever of Shutdown: cancelling it stops every
		// in-flight enumeration at its next yield boundary.
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
		ReadHeaderTimeout: 10 * time.Second,
		// No server-wide WriteTimeout: long streams are legitimate.
		// Stalled clients are handled by the per-flush write deadline.
	}
	return s
}

// Handler returns the endpoint as a plain http.Handler, for embedding
// and for httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown (or Close). Like
// http.Server.Serve it returns http.ErrServerClosed on clean shutdown.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server: /readyz flips to 503 immediately (so
// load balancers stop routing here), listeners close, and in-flight
// requests run to completion — until ctx's deadline. If the deadline
// expires first, every remaining request is hard-cancelled through the
// base context; their streams stop at the next yield boundary and
// their responses are closed as valid truncated documents. Shutdown
// returns only once no request handler is running: nil after a clean
// drain, the ctx error after a hard-cancel.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.http.Shutdown(ctx)
	// Hard-cancel whatever is still running (a no-op after a clean
	// drain) and wait for the handlers themselves: http.Server.Shutdown
	// tracks connections, not handler returns.
	s.baseCancel()
	s.inflight.Wait()
	// Every handler has returned: drop the holder's engine reference so
	// the backing snapshot (if any) closes. Requests were the only other
	// holders, and they are done.
	s.stopOnce.Do(func() {
		if st := s.cur.Load(); st != nil {
			st.release()
		}
	})
	if err != nil {
		// The drain deadline expired: force-close the connections the
		// cancelled handlers were writing to.
		if closeErr := s.http.Close(); closeErr != nil && err == context.DeadlineExceeded {
			return closeErr
		}
	}
	return err
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting work, 503 during
// drain so orchestrators stop routing new requests here while
// in-flight streams finish.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// Stats is the /stats document: serving counters, admission state and
// the shape of the data being served.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	Backend string `json:"backend"`
	Shards  int    `json:"shards"`
	Triples int    `json:"triples"`

	Gate         int   `json:"gate"`
	QueueCap     int   `json:"queue_cap"`
	InFlight     int64 `json:"in_flight"`
	PeakInFlight int64 `json:"peak_in_flight"`
	Queued       int64 `json:"queued"`
	PeakQueued   int64 `json:"peak_queued"`

	Queries      uint64 `json:"queries"`
	RowsStreamed uint64 `json:"rows_streamed"`
	Shed         uint64 `json:"shed"`
	Rejected     uint64 `json:"rejected"`
	Panics       uint64 `json:"panics"`
	Timeouts     uint64 `json:"timeouts"`
	WriteStalls  uint64 `json:"write_stalls"`

	QueryCache wdsparql.CacheStats `json:"query_cache"`

	// Snapshot serving: the image behind the engine (nil when serving
	// a parsed graph) and the hot-reload counters.
	Snapshot       *SnapshotStats `json:"snapshot,omitempty"`
	Reloads        uint64         `json:"reloads"`
	ReloadFailures uint64         `json:"reload_failures"`

	// Live ingest: the POST /ingest counters and the size of the
	// current generation's mutable overlay.
	Ingest IngestStats `json:"ingest"`
}

// IngestStats is the /stats "ingest" section.
type IngestStats struct {
	Batches          uint64 `json:"batches"`
	TriplesApplied   uint64 `json:"triples_applied"`
	OverlaySize      int    `json:"overlay_size"`
	Refreezes        uint64 `json:"refreezes"`
	RefreezeFailures uint64 `json:"refreeze_failures"`
}

// snapshot assembles the current Stats.
func (s *Server) snapshot() Stats {
	st := Stats{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Draining:       s.draining.Load(),
		Gate:           s.cfg.MaxConcurrent,
		QueueCap:       s.cfg.MaxQueue,
		InFlight:       s.inFlight.Load(),
		PeakInFlight:   s.peakInFlight.Load(),
		Queued:         s.adm.waiting(),
		PeakQueued:     s.adm.peakWaiting(),
		Queries:        s.queries.Load(),
		RowsStreamed:   s.rowsStreamed.Load(),
		Shed:           s.shed.Load(),
		Rejected:       s.rejected.Load(),
		Panics:         s.panics.Load(),
		Timeouts:       s.timeouts.Load(),
		WriteStalls:    s.writeStalls.Load(),
		Reloads:        s.reloads.Load(),
		ReloadFailures: s.reloadFails.Load(),
		Ingest: IngestStats{
			Batches:          s.ingestBatches.Load(),
			TriplesApplied:   s.ingestTriples.Load(),
			Refreezes:        s.refreezes.Load(),
			RefreezeFailures: s.refreezeFails.Load(),
		},
	}
	// The data-shape section reads the current engine generation, held
	// for the duration of the read so a concurrent reload cannot close
	// its backing mid-inspection.
	eng := s.engine()
	if eng == nil {
		return st // shut down: counters only
	}
	defer eng.release()
	g := eng.eng.Graph()
	st.Backend = "frozen"
	if g.Sharded() {
		st.Backend = "sharded"
		st.Shards = g.ShardCount()
	}
	st.Triples = g.Len()
	st.Ingest.OverlaySize = g.OverlayLen()
	st.QueryCache = eng.eng.QueryCacheStats()
	st.Snapshot = eng.snap
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.snapshot())
}

// noteInFlight bumps the in-flight gauge and its high-water mark,
// returning the decrement.
func (s *Server) noteInFlight() func() {
	n := s.inFlight.Add(1)
	for {
		peak := s.peakInFlight.Load()
		if n <= peak || s.peakInFlight.CompareAndSwap(peak, n) {
			break
		}
	}
	return func() { s.inFlight.Add(-1) }
}
