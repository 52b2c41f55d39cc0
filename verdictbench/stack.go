package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"herdcats/internal/fleet"
	"herdcats/internal/obs"
	"herdcats/internal/serve"
)

// nodesPerStack is the herdd count behind the gateway.
const nodesPerStack = 2

// stack is one serving stack on loopback: the bench's client → herd-gw
// (fleet.Gateway) → nodesPerStack herdd nodes (serve.Server). A fresh
// stack has every cache empty.
type stack struct {
	id      int
	nodes   []*serve.Server
	nodeHS  []*httptest.Server
	gw      *fleet.Gateway
	gwHS    *httptest.Server
	client  *fleet.Client
	trans   []*http.Transport
	metrics stackMetrics // filled by close
}

// stackMetrics are the /metrics counters a stack accumulated over its
// life, read just before it shuts down.
type stackMetrics struct {
	programMisses        uint64
	shed                 float64
	waitSumUS, waitCount float64
	reroutes             float64
}

// newStack starts the nodes and the gateway. With a non-nil tracer every
// HTTP hop is wrapped in span recorders; with nil nothing is wrapped.
func newStack(id int, tr *tracer) (*stack, error) {
	s := &stack{id: id}
	var backends []string
	for i := 0; i < nodesPerStack; i++ {
		// Workers: 1 runs one simulation per batch stream at a time: the
		// closed loop's clients and the gateway's per-backend fan-out
		// already keep every core busy, and a wider pool would measure
		// oversubscription (and hide each job's time inside the stream).
		n := serve.New(serve.Config{Workers: 1})
		var h http.Handler = n.Handler()
		if tr != nil {
			h = tr.wrapNode(fmt.Sprintf("s%d/n%d", id, i), h)
		}
		hs := httptest.NewServer(h)
		s.nodes = append(s.nodes, n)
		s.nodeHS = append(s.nodeHS, hs)
		backends = append(backends, hs.URL)
	}
	upstream := &http.Client{Transport: s.newTransport()}
	if tr != nil {
		upstream.Transport = tr.wrapTransport(upstream.Transport)
	}
	gw, err := fleet.NewGateway(fleet.GatewayConfig{Backends: backends, HTTPClient: upstream})
	if err != nil {
		s.shutdown()
		return nil, err
	}
	s.gw = gw
	var h http.Handler = gw.Handler()
	if tr != nil {
		h = tr.wrapGateway(h)
	}
	s.gwHS = httptest.NewServer(h)
	front := &http.Client{Transport: s.newTransport()}
	if tr != nil {
		front.Transport = tr.wrapClient(front.Transport)
	}
	// One attempt: a retry would turn an error into a late success and
	// hide it from failed_frac.
	s.client = fleet.NewClient(s.gwHS.URL, fleet.Policy{MaxAttempts: 1, Timeout: time.Minute}, front)
	return s, nil
}

// newTransport is a loopback transport with enough idle connections for
// the closed loop's clients and the gateway's fan-out; shutdown closes it.
func (s *stack) newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	s.trans = append(s.trans, t)
	return t
}

// close reads the stack's counters and stops every server and goroutine.
func (s *stack) close() error {
	err := s.readMetrics()
	s.shutdown()
	return err
}

func (s *stack) shutdown() {
	if s.gwHS != nil {
		s.gwHS.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, hs := range s.nodeHS {
		hs.Close()
	}
	for _, t := range s.trans {
		t.CloseIdleConnections()
	}
	// The run keeps closed stacks for their counters; drop the servers
	// and their caches so a long run does not hold every pass in memory.
	s.nodes, s.nodeHS, s.gw, s.gwHS = nil, nil, nil, nil
}

func (s *stack) readMetrics() error {
	m := &s.metrics
	for i, hs := range s.nodeHS {
		v, err := scrape(hs.URL)
		if err != nil {
			return err
		}
		for _, reason := range []string{"queue_full", "queue_wait", "deadline"} {
			m.shed += v[`herdd_admission_shed_total{reason="`+reason+`"}`]
		}
		m.waitSumUS += v["herdd_admission_wait_us_sum"]
		m.waitCount += v["herdd_admission_wait_us_count"]
		m.programMisses += s.nodes[i].Cache().Stats().ProgramMisses
	}
	v, err := scrape(s.gwHS.URL)
	if err != nil {
		return err
	}
	m.reroutes = v["gw_reroutes_total"]
	return nil
}

// scrapeClient keeps no idle connections to servers about to close.
var scrapeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// scrape reads one /metrics exposition.
func scrape(base string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := scrapeClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return obs.ParseExposition(string(body))
}
