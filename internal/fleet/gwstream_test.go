package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/catalog"
	"herdcats/internal/serve"
	"herdcats/internal/wire"
)

// collectStream runs one BatchStream and sorts the frames by kind.
func collectStream(t *testing.T, c *Client, req wire.BatchRequest) (map[int]*wire.ResultFrame, map[int]*wire.ErrorFrame, *wire.SummaryFrame) {
	t.Helper()
	results := map[int]*wire.ResultFrame{}
	errs := map[int]*wire.ErrorFrame{}
	var sum *wire.SummaryFrame
	err := c.BatchStream(context.Background(), req, func(frame any) error {
		switch f := frame.(type) {
		case *wire.ResultFrame:
			if results[f.Index] != nil || errs[f.Index] != nil {
				t.Errorf("index %d emitted twice", f.Index)
			}
			results[f.Index] = f
		case *wire.ErrorFrame:
			if f.Index < 0 {
				t.Errorf("stream-level error: %s", f.Error.Message)
				return nil
			}
			if results[f.Index] != nil || errs[f.Index] != nil {
				t.Errorf("index %d emitted twice", f.Index)
			}
			errs[f.Index] = f
		case *wire.SummaryFrame:
			if sum != nil {
				t.Error("two summary frames")
			}
			sum = f
		}
		return nil
	})
	if err != nil {
		t.Fatalf("BatchStream: %v", err)
	}
	if sum == nil {
		t.Fatal("stream ended without a summary")
	}
	return results, errs, sum
}

// matchBufferedStream is the order-insensitive differential both the
// node-direct and through-gateway tests share: every buffered row must
// have exactly one streamed frame with the same verdict.
func matchBufferedStream(t *testing.T, buffered *wire.BatchResponse, results map[int]*wire.ResultFrame, errs map[int]*wire.ErrorFrame, sum *wire.SummaryFrame) {
	t.Helper()
	n := len(buffered.Report.Jobs)
	if len(results)+len(errs) != n {
		t.Fatalf("stream carried %d frames for %d tests", len(results)+len(errs), n)
	}
	for i, row := range buffered.Report.Jobs {
		if row.Failed() {
			if errs[i] == nil {
				t.Errorf("row %d (%s): buffered %s but streamed a result", i, row.Name, row.Status)
			}
			continue
		}
		rf := results[i]
		if rf == nil {
			t.Errorf("row %d (%s): buffered %s but streamed an error: %+v", i, row.Name, row.Status, errs[i])
			continue
		}
		if rf.Result.Status != row.Status {
			t.Errorf("row %d (%s): streamed %s, buffered %s", i, row.Name, rf.Result.Status, row.Status)
		}
	}
	if sum.Tests != n {
		t.Errorf("summary tests = %d, want %d", sum.Tests, n)
	}
	for st, want := range buffered.Report.Counts {
		if sum.Counts[st] != want {
			t.Errorf("summary counts[%s] = %d, buffered %d", st, sum.Counts[st], want)
		}
	}
}

// TestClientBatchStream pins the client side of the streaming wire
// format against a real node: same verdicts as the buffered call, one
// frame per test, a single terminal summary.
func TestClientBatchStream(t *testing.T) {
	s := serve.New(serve.Config{Workers: 4})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := NewClient(hs.URL, Policy{}, nil)

	req := wire.BatchRequest{
		Tests: []string{sbVariant(0), "garbage", sbVariant(1), sbVariant(2)},
		Model: wire.ModelSpec{Name: "tso"},
	}
	buffered, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	results, errs, sum := collectStream(t, c, req)
	matchBufferedStream(t, buffered, results, errs, sum)
}

// TestGatewayStreamingDifferential is the PR's acceptance differential:
// the whole catalogue through herd-gw in both wire formats, for one
// backend worker and several, must produce identical verdict sets
// (order-insensitive), with the gateway fanning the stream out across
// three real backends.
func TestGatewayStreamingDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalogue differential simulates the whole catalogue twice per config")
	}
	var tests []string
	for _, e := range catalog.Tests() {
		tests = append(tests, e.Source)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			servers := make([]*serve.Server, 3)
			var cfg GatewayConfig
			for i := range servers {
				servers[i] = serve.New(serve.Config{Workers: workers})
				hs := httptest.NewServer(servers[i].Handler())
				t.Cleanup(hs.Close)
				cfg.Backends = append(cfg.Backends, hs.URL)
			}
			cfg.HeartbeatInterval = 50 * time.Millisecond
			gw, err := NewGateway(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(gw.Close)
			ghs := httptest.NewServer(gw.Handler())
			t.Cleanup(ghs.Close)
			c := NewClient(ghs.URL, Policy{Timeout: 2 * time.Minute}, nil)

			req := wire.BatchRequest{Tests: tests, Model: wire.ModelSpec{Name: "power"}}
			buffered, err := c.Batch(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			results, errs, sum := collectStream(t, c, req)
			matchBufferedStream(t, buffered, results, errs, sum)

			// The streamed keys must match the buffered keys row for row:
			// same content address, same caching behaviour.
			for i, key := range buffered.Keys {
				if rf := results[i]; rf != nil && key != "" && rf.Key != key {
					t.Errorf("row %d: streamed key %q, buffered %q", i, rf.Key, key)
				}
			}
		})
	}
}

// TestGatewayErrorEnvelopeCompat is the byte-compatibility contract of
// satellite hardening: for the same failure, herd-gw's error body must
// be byte-identical to herdd's envelope, and a shed backend's
// Retry-After must travel through verbatim — not re-derived.
func TestGatewayErrorEnvelopeCompat(t *testing.T) {
	// A backend that sheds everything with a distinctive Retry-After.
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok\n"))
			return
		}
		w.Header().Set(wire.RetryAfterHeader, "17")
		wire.WriteError(w, http.StatusTooManyRequests, "overloaded (queue_full): retry after 17s")
	}))
	defer backend.Close()

	gw, err := NewGateway(GatewayConfig{
		Backends: []string{backend.URL},
		Policy:   Policy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	body, _ := json.Marshal(wire.RunRequest{Litmus: sbVariant(9), Model: wire.ModelSpec{Name: "tso"}})
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get(wire.RetryAfterHeader); ra != "17" {
		t.Fatalf("Retry-After = %q, want the backend's verbatim \"17\"", ra)
	}

	// Byte-for-byte: what herdd would have written for this failure.
	want := httptest.NewRecorder()
	wire.WriteError(want, http.StatusTooManyRequests, "overloaded (queue_full): retry after 17s")
	if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("gateway envelope diverges from herdd's:\n gw:    %s\n herdd: %s", rec.Body.Bytes(), want.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentTypeJSON {
		t.Fatalf("content-type %q", ct)
	}

	// A bad request gets herdd's answer from the gateway too: the same
	// status and the same envelope bytes, decided before any routing.
	herdd := serve.New(serve.Config{}).Handler()
	node := httptest.NewServer(herdd)
	defer node.Close()
	gw2, err := NewGateway(GatewayConfig{Backends: []string{node.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	run, _ := json.Marshal(wire.RunRequest{Litmus: sbSrc, Model: wire.ModelSpec{Name: "tso"}})
	oversized, _ := json.Marshal(wire.RunRequest{Litmus: sbSrc + strings.Repeat(" ", 5<<20), Model: wire.ModelSpec{Name: "tso"}})
	unknownModel, _ := json.Marshal(wire.BatchRequest{Tests: []string{sbSrc}, Model: wire.ModelSpec{Name: "no-such-model"}})
	negBudget, _ := json.Marshal(wire.BatchRequest{Tests: []string{sbSrc}, Model: wire.ModelSpec{Name: "tso"},
		Budget: wire.BudgetSpec{MaxCandidates: -1}})
	for _, row := range []struct {
		name, path string
		body       []byte
		status     int
	}{
		{"oversized run body", "/v1/run", oversized, http.StatusRequestEntityTooLarge},
		{"run with trailing data", "/v1/run", append(run, `{"litmus":"x"}`...), http.StatusBadRequest},
		{"batch with an unknown model", "/v1/batch", unknownModel, http.StatusNotFound},
		{"batch with a negative budget", "/v1/batch", negBudget, http.StatusBadRequest},
	} {
		want := httptest.NewRecorder()
		herdd.ServeHTTP(want, httptest.NewRequest(http.MethodPost, row.path, bytes.NewReader(row.body)))
		got := httptest.NewRecorder()
		gw2.Handler().ServeHTTP(got, httptest.NewRequest(http.MethodPost, row.path, bytes.NewReader(row.body)))
		if want.Code != row.status {
			t.Errorf("%s: herdd answered %d, want %d", row.name, want.Code, row.status)
		}
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: gateway answered %d %s, herdd %d %s", row.name, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
	}
}

// TestGatewayBatchChunking: a batch larger than herdd's limit travels
// upstream as sub-batches of at most wire.MaxBatchTests tests, in both
// wire formats — never as one oversized batch, never row by row.
func TestGatewayBatchChunking(t *testing.T) {
	const n = 300
	tests := make([]string, n)
	for i := range tests {
		tests[i] = sbVariant(1000 + i)
	}
	for _, stream := range []bool{false, true} {
		t.Run(fmt.Sprintf("stream=%v", stream), func(t *testing.T) {
			var batches, runs atomic.Int64
			node := serve.New(serve.Config{})
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/batch":
					batches.Add(1)
				case "/v1/run":
					runs.Add(1)
				}
				node.Handler().ServeHTTP(w, r)
			}))
			t.Cleanup(hs.Close)
			gw, err := NewGateway(GatewayConfig{Backends: []string{hs.URL}, ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(gw.Close)
			ghs := httptest.NewServer(gw.Handler())
			t.Cleanup(ghs.Close)
			c := NewClient(ghs.URL, Policy{MaxAttempts: 1}, nil)

			req := wire.BatchRequest{Tests: tests, Model: wire.ModelSpec{Name: "tso"}}
			answered := 0
			if stream {
				results, errs, _ := collectStream(t, c, req)
				for i := range tests {
					if results[i] != nil && results[i].Result.Status == campaign.StatusOK {
						answered++
					} else if errs[i] != nil {
						t.Errorf("row %d: %+v", i, errs[i].Error)
					}
				}
			} else {
				resp, err := c.Batch(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				for i, row := range resp.Report.Jobs {
					if row.Status == campaign.StatusOK && resp.Keys[i] != "" {
						answered++
					} else {
						t.Errorf("row %d: %s (%s)", i, row.Status, row.Reason)
					}
				}
			}
			if answered != n {
				t.Errorf("%d of %d rows answered", answered, n)
			}
			if b, r := batches.Load(), runs.Load(); b != 2 || r != 0 {
				t.Errorf("upstream saw %d /v1/batch and %d /v1/run calls, want 2 and 0", b, r)
			}
		})
	}
}

// TestGatewayResendsShedRows: a row the backend's stream sheds with a
// retryable code (herdd sheds batch rows one at a time) is re-sent as a
// Run instead of reaching the caller as a final error, in both wire
// formats; a permanent row error is forwarded as-is.
func TestGatewayResendsShedRows(t *testing.T) {
	node := serve.New(serve.Config{})
	var runs atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batch" {
			if r.URL.Path == "/v1/run" {
				runs.Add(1)
			}
			node.Handler().ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
		enc := wire.NewEncoder(w)
		_ = enc.Encode(wire.NewError(0, "tests[0]", wire.ErrorCode(http.StatusTooManyRequests), "overloaded (queue_full)"))
		_ = enc.Encode(wire.NewError(1, "tests[1]", wire.ErrorCode(http.StatusUnprocessableEntity), "simulate: no"))
		_ = enc.Encode(wire.NewSummary(2))
	}))
	defer hs.Close()
	gw, err := NewGateway(GatewayConfig{Backends: []string{hs.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ghs := httptest.NewServer(gw.Handler())
	defer ghs.Close()
	c := NewClient(ghs.URL, Policy{MaxAttempts: 1}, nil)
	req := wire.BatchRequest{Tests: []string{sbVariant(0), sbVariant(1)}, Model: wire.ModelSpec{Name: "tso"}}

	resp, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if row := resp.Report.Jobs[0]; row.Status != campaign.StatusOK {
		t.Errorf("buffered shed row: %s (%s), want it re-sent and OK", row.Status, row.Reason)
	}
	if row := resp.Report.Jobs[1]; row.Status != campaign.StatusError || row.Reason != "simulate: no" {
		t.Errorf("buffered permanent row: %s (%q), want Error with the envelope message", row.Status, row.Reason)
	}
	results, errs, _ := collectStream(t, c, req)
	if results[0] == nil || results[0].Result.Status != campaign.StatusOK {
		t.Errorf("streamed shed row: %+v / %+v, want it re-sent and OK", results[0], errs[0])
	}
	if errs[1] == nil || errs[1].Error.Message != "simulate: no" {
		t.Errorf("streamed permanent row: %+v, want its error frame", errs[1])
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("%d re-sent runs, want 1 per format", n)
	}
}

// TestGatewayStreamOrdered pins request-order delivery through the
// gateway's merge even though three backends race to produce frames.
func TestGatewayStreamOrdered(t *testing.T) {
	gw, _ := newFleet(t, 3, GatewayConfig{})
	ghs := httptest.NewServer(gw.Handler())
	t.Cleanup(ghs.Close)

	n := 40
	tests := make([]string, n)
	for i := range tests {
		tests[i] = sbVariant(100 + i)
	}
	body, _ := json.Marshal(wire.BatchRequest{Tests: tests, Model: wire.ModelSpec{Name: "tso"}, Ordered: true})
	hr, _ := http.NewRequest(http.MethodPost, ghs.URL+"/v1/batch", bytes.NewReader(body))
	hr.Header.Set("Accept", wire.ContentTypeNDJSON)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeNDJSON {
		t.Fatalf("content-type %q", ct)
	}
	dec := wire.NewDecoder(resp.Body)
	next := 0
	for {
		frame, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f := frame.(type) {
		case *wire.ResultFrame:
			if f.Index != next {
				t.Fatalf("ordered stream emitted index %d, want %d", f.Index, next)
			}
			if f.Result.Status != campaign.StatusOK {
				t.Fatalf("row %d: %s (%s)", f.Index, f.Result.Status, f.Result.Reason)
			}
			next++
		case *wire.ErrorFrame:
			t.Fatalf("row %d errored: %+v", f.Index, f.Error)
		}
	}
	if next != n {
		t.Fatalf("stream delivered %d of %d rows", next, n)
	}
}
