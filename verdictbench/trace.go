package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per hop the bench can observe from outside the program.
const (
	spanClient   = "client"         // the bench client's request round trip
	spanGateway  = "fleet"          // herd-gw's handler
	spanUpstream = "fleet.upstream" // one gateway → herdd exchange, body included
	spanNode     = "serve"          // herdd's handler
)

// Headers carrying the request ID (shared by every span of one request)
// and the parent span across the two loopback hops.
const (
	hdrRequest = "X-Bench-Request"
	hdrSpan    = "X-Bench-Span"
)

// span is one timed interval of one request. Times are nanoseconds since
// the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Sub    uint64 `json:"sub"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// pendingReplay is a traced request whose verdicts are replayed after the
// traced segment, so the replays' own work and garbage do not slow the
// requests being timed.
type pendingReplay struct {
	id        uint64
	stack     int
	pairs     []pair
	wasCached []bool
}

// replay is the cost of the work below herdd's handler for the verdicts
// of one request, measured by calling each layer's public functions from
// the bench (see replayVerdict).
type replay struct {
	ID       uint64 `json:"id"`
	Stack    int    `json:"stack"`
	Verdicts int    `json:"verdicts"`
	Cached   int    `json:"cached"`
	layerCost
}

// tracer keeps every span and replay in memory; they are written out once,
// when the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []span
	pending []pendingReplay
	replays []replay
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) addPending(p pendingReplay) {
	t.mu.Lock()
	t.pending = append(t.pending, p)
	t.mu.Unlock()
}

// replayAll replays every pending request, one at a time: replays run
// in parallel measured up to a third more than herdd spent, from their own
// contention and garbage.
func (t *tracer) replayAll(ctx context.Context) error {
	for _, p := range t.pending {
		r := replay{ID: p.id, Stack: p.stack, Verdicts: len(p.pairs)}
		for j, pr := range p.pairs {
			if p.wasCached[j] {
				r.Cached++
			}
			c, err := replayVerdict(ctx, pr, !p.wasCached[j])
			if err != nil {
				return err
			}
			r.add(c)
		}
		t.replays = append(t.replays, r)
	}
	return nil
}

type ctxKey struct{}

// hop is the trace identity a context carries to the next hop.
type hop struct{ id, parent uint64 }

func withHop(ctx context.Context, h hop) context.Context {
	return context.WithValue(ctx, ctxKey{}, h)
}

func hopOf(ctx context.Context) (hop, bool) {
	h, ok := ctx.Value(ctxKey{}).(hop)
	return h, ok && h.id != 0
}

func headerHop(r *http.Request) hop {
	id, _ := strconv.ParseUint(r.Header.Get(hdrRequest), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
	return hop{id, parent}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// wrapClient stamps the request ID the closed loop put in the context onto
// the bench client's request; the loop times the client span itself.
func (t *tracer) wrapClient(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if h, ok := hopOf(r.Context()); ok {
			r = r.Clone(r.Context())
			r.Header.Set(hdrRequest, strconv.FormatUint(h.id, 10))
		}
		return next.RoundTrip(r)
	})
}

// wrapGateway times herd-gw's handler and hands the request ID to the
// gateway's upstream calls through the request context.
func (t *tracer) wrapGateway(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := headerHop(r)
		if h.id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		s := span{ID: h.id, Sub: t.newID(), Name: spanGateway, Start: t.now()}
		next.ServeHTTP(w, r.WithContext(withHop(r.Context(), hop{h.id, s.Sub})))
		s.End = t.now()
		t.add(s)
	})
}

// wrapTransport times each gateway → herdd exchange until its body is
// drained or closed (a streamed batch ends with its last frame).
func (t *tracer) wrapTransport(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		h, ok := hopOf(r.Context())
		if !ok {
			return next.RoundTrip(r) // health probes
		}
		s := span{ID: h.id, Sub: t.newID(), Parent: h.parent, Name: spanUpstream, Node: r.URL.Host, Start: t.now()}
		r = r.Clone(r.Context())
		r.Header.Set(hdrRequest, strconv.FormatUint(h.id, 10))
		r.Header.Set(hdrSpan, strconv.FormatUint(s.Sub, 10))
		resp, err := next.RoundTrip(r)
		if err != nil {
			s.End = t.now()
			t.add(s)
			return nil, err
		}
		resp.Body = &endBody{ReadCloser: resp.Body, done: func() {
			s.End = t.now()
			t.add(s)
		}}
		return resp, nil
	})
}

// endBody calls done once, at the first EOF, read error or Close.
type endBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *endBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *endBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// wrapNode times herdd's handler on one node.
func (t *tracer) wrapNode(node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := headerHop(r)
		if h.id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		s := span{ID: h.id, Sub: t.newID(), Parent: h.parent, Name: spanNode, Node: node, Start: t.now()}
		next.ServeHTTP(w, r)
		s.End = t.now()
		t.add(s)
	})
}

// write dumps the spans and replays as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	for _, r := range t.replays {
		if err := enc.Encode(r); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
