package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/fleet/faultproxy"
	"herdcats/internal/serve"
	"herdcats/internal/testleak"
	"herdcats/internal/wire"
)

// chaosTests generates n store-buffering variants whose tso verdicts are
// known by construction: even indices ask for the classic relaxed
// outcome 0/0, which x86-TSO forbids only with fences — absent here, so
// it is Allowed; odd indices ask for a value (2) that no thread ever
// stores, which is unreachable on any model — Forbidden. Distinct names
// give every test its own verdict key, so the batch spreads across the
// whole fleet.
func chaosTests(n int) (tests []string, wantOK []bool) {
	tests = make([]string, n)
	wantOK = make([]bool, n)
	for i := range tests {
		cond := `exists (0:EAX=0 /\ 1:EAX=0)` // reachable: Allowed under tso
		if i%2 == 1 {
			cond = `exists (0:EAX=2 /\ 1:EAX=2)` // value never stored: Forbidden
		}
		tests[i] = fmt.Sprintf(`X86 chaos%04d
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
%s`, i, cond)
		wantOK[i] = i%2 == 0
	}
	return tests, wantOK
}

// TestChaosBatchSurvivesFaults is the fleet's acceptance test: a
// 500-test buffered POST /v1/batch through the gateway while, on a seeded
// fault schedule, one backend runs +500ms slow with a 25% 5xx burst and
// another is killed outright mid-batch. The batch must still return every
// verdict exactly once, each one correct, with zero gateway-level errors
// — and tearing everything down must leak no goroutines.
func TestChaosBatchSurvivesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos batch takes tens of seconds")
	}
	leakCheck := testleak.Baseline()

	// Three real herdd backends, each behind its own fault proxy. The
	// gateway only ever sees the proxied addresses.
	const nBackends = 3
	nodes := make([]*serve.Server, nBackends)
	proxies := make([]*faultproxy.Proxy, nBackends)
	backendURLs := make([]string, nBackends)
	var servers []*httptest.Server
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	for i := 0; i < nBackends; i++ {
		nodes[i] = serve.New(serve.Config{})
		up := httptest.NewServer(nodes[i].Handler())
		defer up.Close() // idempotent; the leak check closes it first
		p, err := faultproxy.New(up.URL, uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		front := httptest.NewServer(p)
		defer front.Close()
		servers = append(servers, up, front)
		backendURLs[i] = front.URL
	}

	// The seeded fault schedule: backend 1 is degraded before the
	// gateway's first probe (+500ms on every request, 25% of them
	// answered 503); backend 2 is killed once the fleet has finished ~100
	// verdicts, with the batch still in full flight. The batch reaches
	// each backend as one stream, so the error rate matches the streaming
	// test's: at 5% the handful of stream POSTs, probes and re-sends
	// would rarely draw a 503.
	proxies[1].SetLatency(500 * time.Millisecond)
	proxies[1].SetErrorRate(0.25)

	gw, err := NewGateway(GatewayConfig{
		Backends:         backendURLs,
		Policy:           Policy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Timeout: 15 * time.Second},
		ProbeInterval:    250 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  300 * time.Millisecond,
		HTTPClient:       &http.Client{Transport: transport},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwFront := httptest.NewServer(gw.Handler())
	defer gwFront.Close()
	client := NewClient(gwFront.URL, Policy{MaxAttempts: 1, Timeout: 2 * time.Minute}, &http.Client{Transport: transport})

	// completed counts the simulations the fleet has finished, from the
	// backends' own cache statistics.
	completed := func() (n uint64) {
		for _, s := range nodes {
			n += s.Cache().Stats().Misses
		}
		return n
	}

	const nTests = 500
	tests, wantOK := chaosTests(nTests)

	type reply struct {
		resp *serve.BatchResponse
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := client.Batch(context.Background(), serve.BatchRequest{
			Tests: tests,
			Model: serve.ModelSpec{Name: "tso"},
		})
		done <- reply{resp, err}
	}()

	killDeadline := time.After(2 * time.Minute)
	var resp *serve.BatchResponse
	killed := false
	for resp == nil {
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("buffered batch through the gateway failed: %v", r.err)
			}
			resp = r.resp
		case <-killDeadline:
			t.Fatal("chaos batch did not finish within 2 minutes")
		case <-time.After(5 * time.Millisecond):
			if !killed && completed() >= 100 {
				proxies[2].Kill()
				killed = true
			}
		}
	}
	if !killed {
		t.Fatal("batch finished before the mid-batch kill fired — the kill path was never exercised")
	}

	// Every verdict, exactly once, in request order, correct, no errors.
	if got := len(resp.Report.Jobs); got != nTests {
		t.Fatalf("report has %d rows for a %d-test batch", got, nTests)
	}
	for i, job := range resp.Report.Jobs {
		wantName := fmt.Sprintf("chaos%04d", i)
		if job.Name != wantName {
			t.Fatalf("row %d is %q, want %q — rows lost or reordered", i, job.Name, wantName)
		}
		want := campaign.StatusForbidden
		if wantOK[i] {
			want = campaign.StatusOK
		}
		if job.Status != want {
			t.Errorf("row %d (%s): status %s (reason %q), want %s", i, job.Name, job.Status, job.Reason, want)
		}
	}
	if errs := resp.Report.Counts[campaign.StatusError]; errs != 0 {
		t.Errorf("%d rows errored at the gateway, want 0", errs)
	}
	if skipped := resp.Report.Counts[campaign.StatusSkipped]; skipped != 0 {
		t.Errorf("%d rows skipped, want 0", skipped)
	}
	if injected := proxies[1].Injected(); injected == 0 {
		t.Error("the degraded backend never injected a 503 — the 5xx burst path was not exercised")
	} else {
		t.Logf("degraded backend injected %d 503s; fleet completed %d simulations for %d tests",
			injected, completed(), nTests)
	}

	// Teardown must return the process to its pre-test goroutine count
	// (allowing a little slack for the test server machinery winding
	// down). Everything is closed explicitly here — the deferred closes
	// are idempotent backstops for early-failure paths — including the
	// default transport's idle pool, which the fault proxies' reverse
	// proxies dial through.
	gw.Close()
	gwFront.Close()
	for _, s := range servers {
		s.Close()
	}
	transport.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	leakCheck(t)
}

// TestChaosStreamingBatchSurvivesFaults is the streaming analogue: the
// same fault schedule — one backend degraded with +500ms latency and a
// 25% 5xx burst, another killed mid-batch — but the batch travels the
// NDJSON wire through the gateway's stream fan-out. Every index must
// receive exactly one frame with the correct verdict, no error or
// skipped rows, a single terminal summary, and teardown must leak no
// goroutines. (`make chaos-smoke` picks this up via -run 'TestChaos'.)
func TestChaosStreamingBatchSurvivesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming chaos batch takes tens of seconds")
	}
	leakCheck := testleak.Baseline()

	const nBackends = 3
	proxies := make([]*faultproxy.Proxy, nBackends)
	backendURLs := make([]string, nBackends)
	var servers []*httptest.Server
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	for i := 0; i < nBackends; i++ {
		srv := serve.New(serve.Config{})
		up := httptest.NewServer(srv.Handler())
		defer up.Close()
		p, err := faultproxy.New(up.URL, uint64(2000+i))
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		front := httptest.NewServer(p)
		defer front.Close()
		servers = append(servers, up, front)
		backendURLs[i] = front.URL
	}

	gw, err := NewGateway(GatewayConfig{
		Backends:          backendURLs,
		Policy:            Policy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Timeout: 15 * time.Second},
		ProbeInterval:     250 * time.Millisecond,
		BreakerThreshold:  2,
		BreakerCooldown:   300 * time.Millisecond,
		HeartbeatInterval: time.Second,
		HTTPClient:        &http.Client{Transport: transport},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwFront := httptest.NewServer(gw.Handler())
	defer gwFront.Close()
	client := NewClient(gwFront.URL, Policy{MaxAttempts: 1}, &http.Client{Transport: transport})

	proxies[1].SetLatency(500 * time.Millisecond)
	proxies[1].SetErrorRate(0.25)

	const nTests = 240
	tests, wantOK := chaosTests(nTests)

	// The kill fires from inside the frame callback — by construction the
	// batch is still in flight when a quarter of the verdicts are home.
	results := make([]*campaign.JobResult, nTests)
	var summaries int
	var delivered int
	killed := false
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	err = client.BatchStream(ctx, wire.BatchRequest{
		Tests: tests,
		Model: wire.ModelSpec{Name: "tso"},
	}, func(frame any) error {
		switch f := frame.(type) {
		case *wire.ResultFrame:
			if f.Index < 0 || f.Index >= nTests {
				t.Errorf("result frame for out-of-range index %d", f.Index)
				return nil
			}
			if results[f.Index] != nil {
				t.Errorf("index %d delivered twice", f.Index)
				return nil
			}
			r := f.Result
			results[f.Index] = &r
			delivered++
			if !killed && delivered >= nTests/4 {
				proxies[2].Kill()
				killed = true
			}
		case *wire.ErrorFrame:
			t.Errorf("error frame for index %d under chaos: %+v", f.Index, f.Error)
		case *wire.SummaryFrame:
			summaries++
			if f.Tests != nTests {
				t.Errorf("summary covers %d tests, want %d", f.Tests, nTests)
			}
			if n := f.Counts[campaign.StatusError] + f.Counts[campaign.StatusSkipped]; n != 0 {
				t.Errorf("summary reports %d errored/skipped rows, want 0", n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("streaming batch failed: %v", err)
	}
	if !killed {
		t.Fatal("stream finished before the mid-batch kill fired — the kill path was never exercised")
	}
	if summaries != 1 {
		t.Fatalf("stream carried %d summary frames, want exactly 1", summaries)
	}
	for i, r := range results {
		if r == nil {
			t.Errorf("index %d never received a frame", i)
			continue
		}
		want := campaign.StatusForbidden
		if wantOK[i] {
			want = campaign.StatusOK
		}
		if r.Status != want {
			t.Errorf("row %d (%s): status %s (reason %q), want %s", i, r.Name, r.Status, r.Reason, want)
		}
	}
	if injected := proxies[1].Injected(); injected == 0 {
		t.Error("the degraded backend never injected a 503 — the 5xx burst path was not exercised")
	}

	gw.Close()
	gwFront.Close()
	for _, s := range servers {
		s.Close()
	}
	transport.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	leakCheck(t)
}
