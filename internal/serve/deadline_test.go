package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// postJSONHeaders is postJSON with extra request headers.
func postJSONHeaders(t *testing.T, h http.Handler, path string, body any, headers map[string]string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// TestDeadlineClamping: requests with no timeout, or one beyond the cap,
// are clamped to MaxSimTimeout, and the effective-options echo reports
// the clamped value — the client can always see what actually bounded
// its run.
func TestDeadlineClamping(t *testing.T) {
	const capMS = 1500
	s := New(Config{MaxSimTimeout: capMS * time.Millisecond})
	h := s.Handler()

	cases := []struct {
		name      string
		timeoutMS int64
		wantMS    int64
	}{
		{"no timeout clamps to the cap", 0, capMS},
		{"absurd timeout clamps to the cap", 86_400_000, capMS},
		{"beyond the cap clamps to the cap", capMS + 1, capMS},
		{"under the cap is honoured", 200, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, body := postJSON(t, h, "/v1/run", RunRequest{
				Litmus: sbSrc,
				Model:  ModelSpec{Name: "tso"},
				Budget: BudgetSpec{TimeoutMS: tc.timeoutMS},
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, body)
			}
			var resp RunResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if got := resp.Options.Budget.TimeoutMS; got != tc.wantMS {
				t.Errorf("echoed timeout_ms = %d, want %d", got, tc.wantMS)
			}
		})
	}

	// The same clamp feeds the cache key: "no timeout" and "beyond the
	// cap" address the same verdict, so the second is a hit.
	if hits := s.Cache().Stats().Hits; hits == 0 {
		t.Error("clamped-equivalent budgets did not share a cache key")
	}
}

// TestDeadlineClampingInBatch: the batch echo reports the clamped budget
// too.
func TestDeadlineClampingInBatch(t *testing.T) {
	s := New(Config{MaxSimTimeout: time.Second})
	h := s.Handler()
	rec, body := postJSON(t, h, "/v1/batch", BatchRequest{
		Tests:  []string{sbSrc},
		Model:  ModelSpec{Name: "tso"},
		Budget: BudgetSpec{TimeoutMS: 99_999_999},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if got := resp.Options.Budget.TimeoutMS; got != 1000 {
		t.Errorf("batch echoed timeout_ms = %d, want the 1000 cap", got)
	}
}

// TestDeadlineHeader: the X-Deadline budget reaches the request context —
// an expired budget sheds before any work, a malformed one is a 400, and
// the tighter of header and body wins.
func TestDeadlineHeader(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	run := RunRequest{Litmus: sbSrc, Model: ModelSpec{Name: "tso"}}

	rec, body := postJSONHeaders(t, h, "/v1/run", run, map[string]string{DeadlineHeader: "0"})
	checkShed(t, rec, body)
	_, page := getMetrics(t, h)
	if v := parseExposition(t, page)[`herdd_admission_shed_total{reason="deadline"}`]; v != 1 {
		t.Errorf("deadline sheds = %v, want 1", v)
	}

	rec, _ = postJSONHeaders(t, h, "/v1/run", run, map[string]string{DeadlineHeader: "soon"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed X-Deadline: status %d, want 400", rec.Code)
	}

	// A generous budget admits and completes normally.
	rec, body = postJSONHeaders(t, h, "/v1/run", run, map[string]string{DeadlineHeader: "30000"})
	if rec.Code != http.StatusOK {
		t.Errorf("generous X-Deadline: status %d: %s", rec.Code, body)
	}

	// Batch honours the header too.
	brec, bbody := postJSONHeaders(t, h, "/v1/batch",
		BatchRequest{Tests: []string{sbSrc}, Model: ModelSpec{Name: "tso"}},
		map[string]string{DeadlineHeader: "0"})
	checkShed(t, brec, bbody)
}

// TestDeadlineCancelsSimulation: a tiny deadline budget on a heavyweight
// run ends it promptly with an Unknown (incomplete) verdict rather than
// holding a slot for the full simulation.
func TestDeadlineCancelsSimulation(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	// 10 stores to one location give 10! coherence orders — millions of
	// candidates, far more than a 20ms budget can visit.
	big := `X86 big
{ }
 P0 | P1 | P2 | P3 | P4 ;
 MOV [x],$1 | MOV [x],$3 | MOV [x],$5 | MOV [x],$7 | MOV [x],$9 ;
 MOV [x],$2 | MOV [x],$4 | MOV [x],$6 | MOV [x],$8 | MOV [x],$10 ;
exists (x=1)`
	start := time.Now()
	rec, body := postJSON(t, h, "/v1/run", RunRequest{
		Litmus:     big,
		Model:      ModelSpec{Name: "sc"},
		DeadlineMS: 20,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("deadline ignored: run took %v", d)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Outcome.Incomplete || resp.Verdict != "Unknown" {
		t.Errorf("verdict %q incomplete=%v, want Unknown/incomplete after the deadline", resp.Verdict, resp.Outcome.Incomplete)
	}
}
