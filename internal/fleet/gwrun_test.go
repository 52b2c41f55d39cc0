package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"herdcats/internal/serve"
	"herdcats/internal/wire"
)

// fixedRunBody is a /v1/run answer spaced as no Go encoder would write
// it, so a gateway that re-encoded instead of forwarding would show.
const fixedRunBody = `{"key":"k-fixed",  "cached":false,` + "\n\t" + `"verdict":"Allowed"}` + "\n"

// fixedBackend answers every /v1/run with fixedRunBody once release is
// closed (nil: at once), counting the calls.
func fixedBackend(t *testing.T, calls *atomic.Int32, release <-chan struct{}) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_, _ = w.Write([]byte("ok\n"))
			return
		}
		calls.Add(1)
		if release != nil {
			<-release
		}
		w.Header().Set("Content-Type", wire.ContentTypeJSON)
		_, _ = w.Write([]byte(fixedRunBody))
	}))
	t.Cleanup(hs.Close)
	return hs
}

func postRun(h http.Handler, body []byte, header http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	for k, v := range header {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestGatewayForwardsRunBytes: a /v1/run answer comes back through the
// gateway byte for byte, never decoded and re-encoded.
func TestGatewayForwardsRunBytes(t *testing.T) {
	var calls atomic.Int32
	hs := fixedBackend(t, &calls, nil)
	gw, err := NewGateway(GatewayConfig{Backends: []string{hs.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	body, _ := json.Marshal(wire.RunRequest{Litmus: sbSrc, Model: wire.ModelSpec{Name: "tso"}})
	rec := postRun(gw.Handler(), body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Body.String(); got != fixedRunBody {
		t.Errorf("gateway body %q, want the backend's %q", got, fixedRunBody)
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentTypeJSON {
		t.Errorf("content-type %q", ct)
	}
}

// TestGatewayCoalescedBytes: concurrent duplicates reach the backend
// once, and every caller receives the same bytes.
func TestGatewayCoalescedBytes(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	hs := fixedBackend(t, &calls, release)
	gw, err := NewGateway(GatewayConfig{Backends: []string{hs.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	body, _ := json.Marshal(wire.RunRequest{Litmus: sbSrc, Model: wire.ModelSpec{Name: "tso"}})

	const n = 8
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = postRun(gw.Handler(), body, nil)
		}()
	}
	coalesced := gw.Metrics().Counter("gw_coalesced_total")
	for deadline := time.Now().Add(5 * time.Second); coalesced.Value() < n-1; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %d of %d duplicates joined the in-flight call", coalesced.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Errorf("backend saw %d calls for %d duplicates, want 1", c, n)
	}
	for i, rec := range recs {
		if rec.Code != http.StatusOK || rec.Body.String() != fixedRunBody {
			t.Errorf("caller %d: %d %q, want 200 and the backend's bytes", i, rec.Code, rec.Body.Bytes())
		}
	}
}

// TestGatewayDeadline: the caller's X-Deadline bounds the gateway's own
// wait and reaches the backend decremented; a malformed header gets
// herdd's 400 from the gateway, and a spent one 504.
func TestGatewayDeadline(t *testing.T) {
	upstream := make(chan string, 8)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_, _ = w.Write([]byte("ok\n"))
			return
		}
		upstream <- r.Header.Get(wire.DeadlineHeader)
		_, _ = io.Copy(io.Discard, r.Body) // so the server notices the caller leave
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		writeOK(w)
	}))
	defer slow.Close()
	gw, err := NewGateway(GatewayConfig{
		Backends:      []string{slow.URL},
		ProbeInterval: time.Hour,
		Policy:        Policy{Timeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	body, _ := json.Marshal(wire.RunRequest{Litmus: sbSrc, Model: wire.ModelSpec{Name: "tso"}})

	const budgetMS = 300
	start := time.Now()
	rec := postRun(gw.Handler(), body, http.Header{wire.DeadlineHeader: {strconv.Itoa(budgetMS)}})
	elapsed := time.Since(start)
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusGatewayTimeout || env.Error.Code != "deadline_exceeded" {
		t.Errorf("slow backend: %d %s, want 504 deadline_exceeded", rec.Code, rec.Body.Bytes())
	}
	if elapsed > 2*time.Second {
		t.Errorf("gateway answered after %v, want about the %dms budget", elapsed, budgetMS)
	}
	ms, err := strconv.ParseInt(<-upstream, 10, 64)
	if err != nil || ms <= 0 || ms > budgetMS {
		t.Errorf("upstream X-Deadline = %d (%v), want the remaining budget in (0, %d]", ms, err, budgetMS)
	}

	herdd := serve.New(serve.Config{}).Handler()
	bad := http.Header{wire.DeadlineHeader: {"soon"}}
	want, got := postRun(herdd, body, bad), postRun(gw.Handler(), body, bad)
	if want.Code != http.StatusBadRequest || got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("malformed X-Deadline: gateway %d %s, herdd %d %s", got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
	}
	if rec := postRun(gw.Handler(), body, http.Header{wire.DeadlineHeader: {"0"}}); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("spent X-Deadline: status %d, want 504", rec.Code)
	}
	if n := len(upstream); n != 0 {
		t.Errorf("%d rejected requests reached the backend", n)
	}
}

// TestGatewayCoalescedDeadline: a duplicate that joined a call whose
// leader ran out of budget is not failed with it; it asks again under
// its own budget.
func TestGatewayCoalescedDeadline(t *testing.T) {
	var calls atomic.Int32
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_, _ = w.Write([]byte("ok\n"))
			return
		}
		calls.Add(1)
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(300 * time.Millisecond):
			writeOK(w)
		}
	}))
	defer slow.Close()
	gw, err := NewGateway(GatewayConfig{Backends: []string{slow.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	body, _ := json.Marshal(wire.RunRequest{Litmus: sbSrc, Model: wire.ModelSpec{Name: "tso"}})

	leader := make(chan int, 1)
	go func() {
		leader <- postRun(gw.Handler(), body, http.Header{wire.DeadlineHeader: {"100"}}).Code
	}()
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	follower := postRun(gw.Handler(), body, nil)
	if code := <-leader; code != http.StatusGatewayTimeout {
		t.Errorf("leader with a 100ms budget: status %d, want 504", code)
	}
	if follower.Code != http.StatusOK {
		t.Errorf("follower with no budget: %d %s, want 200", follower.Code, follower.Body.Bytes())
	}
	if c := gw.Metrics().Counter("gw_coalesced_total").Value(); c != 1 {
		t.Errorf("coalesced = %d, want the follower to have joined the leader", c)
	}
}
