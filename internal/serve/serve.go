// Package serve is herdd's HTTP layer: a JSON API over the memoised
// simulator (internal/memo) and the fault-tolerant campaign pool
// (internal/campaign), so litmus verdicts can be served as a long-running
// service instead of recomputed per process.
//
// Endpoints:
//
//	POST /v1/run      simulate one litmus test under one model
//	POST /v1/batch    simulate many tests under one model on the worker pool
//	GET  /v1/models   list the built-in cat models and their fingerprints
//	GET  /healthz     liveness probe
//	GET  /metrics     Prometheus text exposition (internal/obs registry)
//	GET  /debug/vars  expvar metrics (herdd_cache, herdd_http)
//	GET  /debug/pprof CPU/heap/goroutine profiles (net/http/pprof)
//
// Requests are bounded (body size, batch size, simulation wall clock),
// malformed input is answered with a JSON error envelope
// {"error":{"code","message"}} and a 4xx status, and Shutdown drains
// in-flight requests before closing.
package serve

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"herdcats/internal/exec"
	"herdcats/internal/memo"
	"herdcats/internal/obs"
)

// Config tunes a Server. The zero value serves with the documented
// defaults.
type Config struct {
	// Workers bounds the campaign pool used by /v1/batch
	// (<= 0 selects GOMAXPROCS), mirroring herd's -j.
	Workers int

	// CacheEntries bounds each layer of the verdict cache
	// (<= 0 selects memo.DefaultMaxEntries).
	CacheEntries int

	// MaxSimTimeout caps the wall clock of one simulation. A request
	// asking for no timeout, or a longer one, is clamped to the cap
	// (0 = uncapped; cmd/herdd defaults it to 30s).
	MaxSimTimeout time.Duration

	// MaxRequestBytes bounds a request body (<= 0 selects 1 MiB).
	MaxRequestBytes int64

	// Prune enables early SC-per-location pruning for models that
	// declare it sound. Verdicts and states are unchanged; the
	// Candidates counters in responses shrink. Fixed per server, so the
	// cache never mixes pruned and unpruned counters.
	Prune bool

	// MaxConcurrent bounds the simulations running at once across /v1/run
	// and /v1/batch — the admission-control slot pool (<= 0 selects
	// 2×GOMAXPROCS with a floor of 4). Cache hits bypass it entirely.
	MaxConcurrent int

	// MaxQueue bounds the requests allowed to wait for a slot; arrivals
	// beyond it are shed immediately with 429 (<= 0 selects 64).
	MaxQueue int

	// MaxQueueWait bounds how long one request may wait for a slot
	// before it is shed with 429 + Retry-After (<= 0 selects 1s).
	MaxQueueWait time.Duration

	// TenantRate meters admission per tenant (X-Tenant header): each
	// tenant accrues this many simulation admissions per second, up to
	// TenantBurst, and is shed with 429 + Retry-After beyond that.
	// <= 0 disables per-tenant metering (the default).
	TenantRate float64

	// TenantBurst caps a tenant's token bucket (<= 0 selects one
	// second of TenantRate, floor 1).
	TenantBurst int

	// HeartbeatInterval spaces the heartbeat frames on an idle NDJSON
	// batch stream (<= 0 selects 10s).
	HeartbeatInterval time.Duration
}

func (c Config) maxRequestBytes() int64 {
	if c.MaxRequestBytes <= 0 {
		return 1 << 20
	}
	return c.MaxRequestBytes
}

// Server is the herdd HTTP service.
type Server struct {
	cfg   Config
	cache *memo.Cache
	mux   *http.ServeMux
	http  *http.Server

	reg     *obs.Registry    // /metrics exposition
	enum    *obs.EnumStats   // process-wide enumeration counters (via memo)
	prune   *exec.PruneStats // process-lifetime pruned-subtree counter (via memo)
	adm     *admission       // concurrency slots + bounded queue + shedding
	tenants *tenantLimiter   // per-tenant token buckets (X-Tenant header)

	requests atomic.Int64 // requests completed
	errors   atomic.Int64 // requests answered with a 4xx/5xx status
	inflight atomic.Int64 // requests being handled right now
}

// New builds a server and registers its expvar and /metrics instruments.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, reg: obs.NewRegistry(), enum: &obs.EnumStats{}, prune: &exec.PruneStats{}}
	s.adm = newAdmission(cfg, s.reg)
	s.tenants = newTenantLimiter(cfg, s.reg)
	s.cache = memo.NewWithOptions(cfg.CacheEntries,
		memo.Options{Prune: cfg.Prune, Obs: s.enum, PruneStats: s.prune})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	// net/http/pprof registers on DefaultServeMux at import; mirror its
	// handlers here so profiles work without the default mux.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	// API misses get the JSON error envelope, not the mux's plain-text
	// 404/405, so clients can rely on one wire format everywhere. The
	// catch-all outcompetes the method-qualified patterns above on method
	// mismatches, so it distinguishes the two cases itself.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if routeLabel(r.URL.Path) != "other" {
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on %s", r.Method, r.URL.Path)
			return
		}
		writeError(w, http.StatusNotFound, "no such endpoint: %s %s", r.Method, r.URL.Path)
	})
	s.registerMetrics()
	s.http = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	liveServer.Store(s)
	publishExpvars()
	return s
}

// registerMetrics bridges the engine and cache counters into the registry.
// Exposition-time functions read live state, so /metrics never lags.
func (s *Server) registerMetrics() {
	r := s.reg
	r.CounterFunc("herdd_enum_candidates_total", func() uint64 { return s.enum.Snapshot().Candidates })
	r.CounterFunc("herdd_enum_pruned_total", func() uint64 { return s.enum.Snapshot().Pruned })
	r.CounterFunc("herdd_enum_skeletons_total", func() uint64 { return s.enum.Snapshot().Skeletons })
	r.CounterFunc("herdd_enum_pruned_subtrees_total", func() uint64 { return uint64(s.prune.Subtrees()) })
	r.CounterFunc("herdd_cache_hits_total", func() uint64 { return s.cache.Stats().Hits })
	r.CounterFunc("herdd_cache_waits_total", func() uint64 { return s.cache.Stats().Waits })
	r.CounterFunc("herdd_cache_misses_total", func() uint64 { return s.cache.Stats().Misses })
	r.CounterFunc("herdd_cache_evictions_total", func() uint64 { return s.cache.Stats().Evictions })
	r.GaugeFunc("herdd_cache_entries", func() int64 { return int64(s.cache.Stats().Entries) })
	r.GaugeFunc("herdd_http_in_flight", func() int64 { return s.inflight.Load() })
}

// routeLabel buckets a request path into a bounded label set, so a
// probing client cannot mint unbounded metric series.
func routeLabel(path string) string {
	switch path {
	case "/v1/run", "/v1/batch", "/v1/models", "/healthz", "/metrics":
		return path
	}
	return "other"
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// Cache exposes the verdict cache (for stats and tests).
func (s *Server) Cache() *memo.Cache { return s.cache }

// Metrics exposes the /metrics registry (for tests and embedding).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the service's HTTP handler (also usable without a
// listening server, e.g. under httptest).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		s.mux.ServeHTTP(sw, r)
		s.requests.Add(1)
		route := routeLabel(r.URL.Path)
		s.reg.Counter(`herdd_requests_total{route="` + route + `"}`).Inc()
		if sw.status >= 400 {
			s.errors.Add(1)
			s.reg.Counter(`herdd_request_errors_total{route="` + route + `"}`).Inc()
		}
		s.reg.Histogram(`herdd_request_latency_us{route="` + route + `"}`).
			Observe(time.Since(start).Microseconds())
	})
}

// ListenAndServe serves on addr until Shutdown or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	s.http.Addr = addr
	return s.http.ListenAndServe()
}

// Serve serves on an existing listener until Shutdown or an error.
func (s *Server) Serve(ln net.Listener) error {
	return s.http.Serve(ln)
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests drain until ctx expires, then connections are forced
// closed (http.Server.Shutdown semantics).
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// Close force-closes the server and its connections.
func (s *Server) Close() error { return s.http.Close() }

// statusWriter records the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards per-frame flushes to the wrapped writer. Embedding the
// ResponseWriter interface hides the concrete writer's Flush from type
// assertions, and without this the NDJSON stream silently degrades to
// one buffered document delivered at the end.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HTTPStats is the herdd_http expvar payload.
type HTTPStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	InFlight int64 `json:"in_flight"`
}

// expvar names are global per process; publish once, reading through the
// most recently constructed server so tests building several servers do
// not collide on registration.
var (
	expvarOnce sync.Once
	liveServer atomic.Pointer[Server]
)

func publishExpvars() {
	expvarOnce.Do(func() {
		expvar.Publish("herdd_cache", expvar.Func(func() any {
			if s := liveServer.Load(); s != nil {
				return s.cache.Stats()
			}
			return memo.Stats{}
		}))
		expvar.Publish("herdd_http", expvar.Func(func() any {
			if s := liveServer.Load(); s != nil {
				return HTTPStats{
					Requests: s.requests.Load(),
					Errors:   s.errors.Load(),
					InFlight: s.inflight.Load(),
				}
			}
			return HTTPStats{}
		}))
	})
}
