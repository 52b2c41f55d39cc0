package fleet

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"herdcats/internal/cat"
	"herdcats/internal/memo"
	"herdcats/internal/obs"
	"herdcats/internal/wire"
)

// GatewayConfig tunes a Gateway. Backends is required; everything else
// has documented defaults.
type GatewayConfig struct {
	// Backends are the herdd base URLs the gateway routes across.
	Backends []string

	// Policy is the per-backend client resilience policy.
	Policy Policy

	// ProbeInterval spaces the /healthz probes per backend
	// (<= 0 selects 1s).
	ProbeInterval time.Duration

	// BreakerThreshold and BreakerCooldown configure each backend's
	// circuit breaker (zero values select the Breaker defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// MaxRequestBytes bounds a request body (<= 0 selects 4 MiB).
	MaxRequestBytes int64

	// HeartbeatInterval spaces the heartbeat frames on an idle merged
	// stream (<= 0 selects 10s).
	HeartbeatInterval time.Duration

	// HTTPClient overrides the transport shared by the backend clients
	// (nil selects a pooling default) — tests inject httptest transports
	// here.
	HTTPClient *http.Client
}

func (c GatewayConfig) probeInterval() time.Duration {
	if c.ProbeInterval <= 0 {
		return time.Second
	}
	return c.ProbeInterval
}

func (c GatewayConfig) maxRequestBytes() int64 {
	if c.MaxRequestBytes <= 0 {
		return 4 << 20
	}
	return c.MaxRequestBytes
}

func (c GatewayConfig) heartbeatInterval() time.Duration {
	if c.HeartbeatInterval <= 0 {
		return 10 * time.Second
	}
	return c.HeartbeatInterval
}

// gwBackend is one routed-to herdd: its client, its circuit breaker, and
// the last probe's verdict.
type gwBackend struct {
	name    string // base URL; doubles as the rendezvous identity
	client  *Client
	breaker *Breaker
}

// gwCall is one in-flight /v1/run; duplicates of its route key join it
// instead of hitting the fleet again, and share its answer's bytes.
type gwCall struct {
	done chan struct{}
	body json.RawMessage
	err  error
	cut  bool // err came from the leader's own context ending
}

// Gateway routes litmus verdicts across a herdd fleet without ever
// interpreting a test. Every request's routeKey, a hash of the request as
// sent, picks its home backend by rendezvous hashing, so repeated
// requests for one test land on one backend's warm cache; an unhealthy or
// ejected home fails over along the key's deterministic backend ranking.
// Duplicate in-flight keys coalesce gateway-side, and a /healthz probe
// loop feeds each backend's circuit breaker out-of-band. herdd alone
// parses and keys a test; its verdict key is the authoritative one.
type Gateway struct {
	cfg      GatewayConfig
	backends map[string]*gwBackend
	names    []string    // sorted, fixed at construction
	models   *memo.Cache // compiles a batch's inline cat source, content-addressed
	mux      *http.ServeMux
	reg      *obs.Registry

	mu       sync.Mutex
	inflight map[string]*gwCall

	probeCancel context.CancelFunc
	probes      sync.WaitGroup
}

// NewGateway builds the gateway and starts its health-probe loops; call
// Close to stop them.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: at least one backend is required")
	}
	g := &Gateway{
		cfg:      cfg,
		backends: make(map[string]*gwBackend, len(cfg.Backends)),
		models:   memo.New(0),
		reg:      obs.NewRegistry(),
		inflight: map[string]*gwCall{},
	}
	for _, raw := range cfg.Backends {
		c := NewClient(raw, cfg.Policy, cfg.HTTPClient)
		name := c.Base()
		if _, dup := g.backends[name]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %s", name)
		}
		g.backends[name] = &gwBackend{
			name:    name,
			client:  c,
			breaker: &Breaker{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown},
		}
		g.names = append(g.names, name)
	}
	sort.Strings(g.names)

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/run", g.handleRun)
	g.mux.HandleFunc("POST /v1/batch", g.handleBatch)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /gw/backends", g.handleBackends)
	g.registerMetrics()

	ctx, cancel := context.WithCancel(context.Background())
	g.probeCancel = cancel
	for _, b := range g.backends {
		g.probes.Add(1)
		go g.probeLoop(ctx, b)
	}
	return g, nil
}

// Close stops the health-probe loops.
func (g *Gateway) Close() {
	g.probeCancel()
	g.probes.Wait()
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Metrics exposes the gateway's registry (for tests and embedding).
func (g *Gateway) Metrics() *obs.Registry { return g.reg }

func (g *Gateway) registerMetrics() {
	// Pre-create the bounded label sets so every series renders at 0.
	for _, name := range g.names {
		name := name
		g.reg.Counter(`gw_backend_requests_total{backend="` + name + `"}`)
		g.reg.Counter(`gw_backend_failures_total{backend="` + name + `"}`)
		g.reg.GaugeFunc(`gw_backend_open{backend="`+name+`"}`, func() int64 {
			if g.backends[name].breaker.State() != BreakerClosed {
				return 1
			}
			return 0
		})
	}
	g.reg.Counter("gw_coalesced_total")
	g.reg.Counter("gw_reroutes_total")
	g.reg.GaugeFunc("gw_inflight_keys", func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(len(g.inflight))
	})
}

// probeLoop health-checks one backend until the gateway closes, feeding
// the circuit breaker out-of-band so a dead backend is ejected even with
// no traffic, and a recovered one is readmitted without sacrificing a
// live request to find out.
func (g *Gateway) probeLoop(ctx context.Context, b *gwBackend) {
	defer g.probes.Done()
	tick := time.NewTicker(g.cfg.probeInterval())
	defer tick.Stop()
	for {
		pctx, cancel := context.WithTimeout(ctx, g.cfg.probeInterval())
		err := b.client.Healthz(pctx)
		cancel()
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			b.breaker.Failure()
		} else {
			b.breaker.Success()
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

// checkModel answers a bad model as herdd would. Only a batch needs it:
// a stream must know its model is valid before it commits its 200.
func (g *Gateway) checkModel(spec wire.ModelSpec) *Error {
	if spec.Name != "" {
		if _, err := cat.Builtin(spec.Name); err != nil {
			return classify(http.StatusNotFound, "not_found", fmt.Sprintf("model: %v", err), err)
		}
	} else if _, err := g.models.Model(spec.Cat); err != nil {
		return classify(http.StatusBadRequest, "bad_request", fmt.Sprintf("model: %v", err), err)
	}
	return nil
}

// runKey sends one /v1/run body through the fleet and returns the
// backend's 200 body: coalesce on the route key, then route.
func (g *Gateway) runKey(ctx context.Context, key string, body []byte) (json.RawMessage, error) {
	g.mu.Lock()
	if call, ok := g.inflight[key]; ok {
		g.mu.Unlock()
		g.reg.Counter("gw_coalesced_total").Inc()
		select {
		case <-call.done:
			if call.cut && ctx.Err() == nil {
				// The leader's caller left or spent its budget; this
				// caller has not, so it asks again.
				return g.runKey(ctx, key, body)
			}
			return call.body, call.err
		case <-ctx.Done():
			return nil, classify(0, "", ctx.Err().Error(), ctx.Err())
		}
	}
	call := &gwCall{done: make(chan struct{})}
	g.inflight[key] = call
	g.mu.Unlock()

	raw, err := g.route(ctx, key, body)

	g.mu.Lock()
	delete(g.inflight, key)
	g.mu.Unlock()
	call.body, call.err, call.cut = raw, err, err != nil && ctx.Err() != nil
	close(call.done)
	return raw, err
}

// route tries the key's backends in rendezvous order: the home backend
// first, failing over on transient errors (which also feed the breaker).
// Backends whose breaker refuses are skipped — unless every breaker
// refuses, in which case the home backend is tried anyway (failing open
// beats failing instantly when the whole fleet looks down). Permanent
// errors return immediately: they are the request's fault and will
// reproduce on any backend. So does the caller's context ending, which
// is no backend's fault.
func (g *Gateway) route(ctx context.Context, key string, body []byte) (json.RawMessage, error) {
	ranked := rendezvous(key, g.names)
	var last error
	tried := 0
	// i == len(ranked) is the fail-open step, taken only if nothing was tried.
	for i := 0; i < len(ranked) || (i == len(ranked) && tried == 0); i++ {
		name := ranked[i%len(ranked)]
		b := g.backends[name]
		if i < len(ranked) && !b.breaker.Allow() {
			continue
		}
		if tried++; tried > 1 {
			g.reg.Counter("gw_reroutes_total").Inc()
		}
		g.reg.Counter(`gw_backend_requests_total{backend="` + name + `"}`).Inc()
		raw, err := b.client.do(ctx, "/v1/run", body)
		switch {
		case err == nil:
			b.breaker.Success()
			return raw, nil
		case !Retryable(err) || ctx.Err() != nil:
			return nil, err
		}
		b.breaker.Failure()
		g.reg.Counter(`gw_backend_failures_total{backend="` + name + `"}`).Inc()
		last = err
	}
	return nil, last
}

// handleRun validates the body as herdd would, forwards it unchanged and
// writes the backend's 200 body back verbatim.
func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	var req wire.RunRequest
	body, ok := wire.ReadRequest(w, r, g.cfg.maxRequestBytes(), &req)
	if !ok {
		return
	}
	ctx, cancel, ok := hopContext(w, r, req.DeadlineMS)
	if !ok {
		return
	}
	defer cancel()
	raw, err := g.runKey(ctx, routeKey(req.Litmus, req.Model, req.Budget), body)
	if err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		err = classify(http.StatusGatewayTimeout, "deadline_exceeded", wire.ErrDeadlineExpired.Error(), err)
	}
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	// raw ends where herdd's document did, before its newline; coalesced
	// callers share it, so it is never appended to.
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	_, _ = w.Write(raw)
	_, _ = w.Write([]byte{'\n'})
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.BatchRequest
	if _, ok := wire.ReadRequest(w, r, g.cfg.maxRequestBytes(), &req); !ok {
		return
	}
	ctx, cancel, ok := hopContext(w, r, req.DeadlineMS)
	if !ok {
		return
	}
	defer cancel()
	if cerr := g.checkModel(req.Model); cerr != nil {
		writeGatewayError(w, cerr)
		return
	}
	if wire.WantsStream(r) {
		g.streamBatch(ctx, w, req)
		return
	}
	wire.WriteJSON(w, http.StatusOK, g.runBatch(ctx, req, nil).response())
}

// hopContext threads the per-hop request metadata into the context the
// backend clients stamp back onto their upstream requests: the caller's
// tenant, so the backends' quotas see the edge tenant, not the gateway,
// and its deadline budget, which also bounds the gateway's own retries
// and failover. A malformed budget gets herdd's 400 and a spent one 504;
// either way hopContext has answered and reports false.
func hopContext(w http.ResponseWriter, r *http.Request, bodyMS int64) (context.Context, context.CancelFunc, bool) {
	budget, err := wire.DeadlineBudget(r, bodyMS)
	switch {
	case errors.Is(err, wire.ErrDeadlineExpired):
		wire.WriteError(w, http.StatusGatewayTimeout, "%v", err)
		return nil, nil, false
	case err != nil:
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}
	ctx := wire.WithTenant(r.Context(), r.Header.Get(wire.TenantHeader))
	if budget <= 0 {
		return ctx, func() {}, true
	}
	ctx, cancel := context.WithTimeout(ctx, budget)
	return ctx, cancel, true
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.reg.WriteText(w)
}

// BackendStatus is one row of GET /gw/backends.
type BackendStatus struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"`
}

func (g *Gateway) handleBackends(w http.ResponseWriter, r *http.Request) {
	out := make([]BackendStatus, 0, len(g.names))
	for _, name := range g.names {
		out = append(out, BackendStatus{
			Name:    name,
			Breaker: g.backends[name].breaker.State().String(),
		})
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// writeGatewayError renders an error in herdd's exact envelope (see
// errorBodyOf). A shed backend's Retry-After travels through verbatim:
// the backend knows its own drain rate, and the gateway inventing a
// different hint would desynchronise the caller's backoff from the
// fleet's actual headroom.
func writeGatewayError(w http.ResponseWriter, err error) {
	var e *Error
	if errors.As(err, &e) && e.RetryAfter != "" {
		w.Header().Set(wire.RetryAfterHeader, e.RetryAfter)
	}
	status, body := errorBodyOf(err)
	wire.WriteEnvelope(w, status, body)
}

// errorBodyOf projects a fleet error onto a status and envelope body,
// for a whole response or a batch row alike: an upstream status and
// message pass through, with the upstream code or else the status's own;
// a transport failure is 502 bad_gateway.
func errorBodyOf(err error) (int, wire.ErrorBody) {
	var e *Error
	if !errors.As(err, &e) || e.Status == 0 {
		return http.StatusBadGateway, wire.ErrorBody{Code: "bad_gateway", Message: err.Error()}
	}
	return e.Status, wire.ErrorBody{Code: cmp.Or(e.Code, wire.ErrorCode(e.Status)), Message: e.Msg}
}
