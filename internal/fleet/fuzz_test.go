package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"herdcats/internal/serve"
	"herdcats/internal/wire"
	"herdcats/internal/wire/wiretest"
)

// serveRun drives one body through a /v1/run handler, reporting a panic
// instead of crashing the process.
func serveRun(h http.Handler, body []byte) (rec *httptest.ResponseRecorder, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return postRun(h, body, nil), false
}

// FuzzGatewayRunMatchesHerdd: herd-gw answers every /v1/run body as the
// herdd behind it does — the same status and, for every non-2xx status,
// the same bytes — and never panics. The gateway validates a body with
// herdd's own decoder and forwards it unchanged, so a bad test or model
// is herdd's answer relayed. The one licensed difference is time: a
// request whose deadline budget runs out in transit is 504 at the
// gateway, where herdd alone may still have answered. The node's
// MaxSimTimeout keeps a fuzzed test from running unbounded; seeded from
// FuzzRunRequestDecoder's corpus.
func FuzzGatewayRunMatchesHerdd(f *testing.F) {
	for _, s := range wiretest.RunRequests {
		f.Add([]byte(s))
	}
	cfg := serve.Config{MaxSimTimeout: 50 * time.Millisecond, MaxRequestBytes: 1 << 16}
	herdd := serve.New(cfg).Handler()
	node := httptest.NewServer(herdd)
	f.Cleanup(node.Close)
	gw, err := NewGateway(GatewayConfig{
		Backends:        []string{node.URL},
		ProbeInterval:   time.Hour,
		MaxRequestBytes: cfg.MaxRequestBytes,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(gw.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		want, panicked := serveRun(herdd, body)
		if panicked {
			t.Fatalf("herdd panicked on body:\n%q", body)
		}
		got, panicked := serveRun(gw.Handler(), body)
		if panicked {
			t.Fatalf("gateway panicked on body:\n%q", body)
		}
		if got.Code == http.StatusGatewayTimeout && want.Code == http.StatusOK {
			var req wire.RunRequest
			if json.Unmarshal(body, &req) == nil && req.DeadlineMS > 0 {
				return // the budget ran out in transit
			}
		}
		if got.Code != want.Code {
			t.Fatalf("gateway answered %d, herdd %d, on body:\n%q\ngateway: %s\nherdd:   %s",
				got.Code, want.Code, body, got.Body.Bytes(), want.Body.Bytes())
		}
		if got.Code/100 != 2 && !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%d bodies differ on body:\n%q\ngateway: %s\nherdd:   %s",
				got.Code, body, got.Body.Bytes(), want.Body.Bytes())
		}
	})
}
