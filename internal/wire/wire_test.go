package wire

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestWantsStream pins the Accept negotiation: any member naming the
// NDJSON media type selects streaming, parameters and spacing ignored;
// everything else (including */*) keeps the buffered default.
func TestWantsStream(t *testing.T) {
	cases := []struct {
		accept []string
		want   bool
	}{
		{nil, false},
		{[]string{""}, false},
		{[]string{"application/json"}, false},
		{[]string{"*/*"}, false},
		{[]string{"application/x-ndjson"}, true},
		{[]string{"application/json, application/x-ndjson"}, true},
		{[]string{" application/x-ndjson ; q=0.9"}, true},
		{[]string{"application/json", "application/x-ndjson"}, true},
		{[]string{"application/x-ndjsonx"}, false},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
		for _, a := range c.accept {
			r.Header.Add("Accept", a)
		}
		if got := WantsStream(r); got != c.want {
			t.Errorf("Accept %q: WantsStream = %v, want %v", c.accept, got, c.want)
		}
	}
}

// TestErrorEnvelopeShape pins the envelope bytes every layer speaks:
// {"error":{"code","message"}}, compact like the buffered documents.
func TestErrorEnvelopeShape(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusTooManyRequests, "admission queue full")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentTypeJSON {
		t.Fatalf("content-type = %q", ct)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "overloaded" || env.Error.Message != "admission queue full" {
		t.Fatalf("envelope = %+v", env)
	}
}

// TestErrorCode pins the status → code table both wire formats share.
func TestErrorCode(t *testing.T) {
	cases := map[int]string{
		http.StatusBadRequest:            "bad_request",
		http.StatusNotFound:              "not_found",
		http.StatusTooManyRequests:       "overloaded",
		http.StatusInternalServerError:   "internal",
		http.StatusBadGateway:            "bad_gateway",
		http.StatusServiceUnavailable:    "unavailable",
		http.StatusGatewayTimeout:        "deadline_exceeded",
		http.StatusUnprocessableEntity:   "unprocessable",
		http.StatusRequestEntityTooLarge: "too_large",
	}
	for status, want := range cases {
		if got := ErrorCode(status); got != want {
			t.Errorf("ErrorCode(%d) = %q, want %q", status, got, want)
		}
	}
}

// TestDecodeBodyTrailingGarbage pins that a request body must be exactly
// one JSON document.
func TestDecodeBodyTrailingGarbage(t *testing.T) {
	var v struct{ A int }
	if err := DecodeBody(strings.NewReader(`{"A":1}`), &v); err != nil || v.A != 1 {
		t.Fatalf("clean body: %v", err)
	}
	if err := DecodeBody(strings.NewReader(`{"A":1}{"A":2}`), &v); err == nil {
		t.Fatal("trailing document accepted")
	}
}

// TestTenantContext pins the context plumbing the client stamps X-Tenant
// from: empty tenants do not pollute the context.
func TestTenantContext(t *testing.T) {
	ctx := context.Background()
	if got := Tenant(ctx); got != "" {
		t.Fatalf("empty context carries tenant %q", got)
	}
	if WithTenant(ctx, "") != ctx {
		t.Fatal("empty tenant should not wrap the context")
	}
	if got := Tenant(WithTenant(ctx, "acme")); got != "acme" {
		t.Fatalf("tenant = %q", got)
	}
}

// TestDeadlineBudgetResolution pins the tighter-wins rule, and that a
// spent budget is told apart from a malformed one.
func TestDeadlineBudgetResolution(t *testing.T) {
	mk := func(header string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
		if header != "" {
			r.Header.Set(DeadlineHeader, header)
		}
		return r
	}
	for _, tc := range []struct {
		header string
		bodyMS int64
		want   time.Duration
	}{
		{"", 0, 0},
		{"", 250, 250 * time.Millisecond},
		{"100", 250, 100 * time.Millisecond}, // header tighter
		{"250", 100, 100 * time.Millisecond}, // body tighter
		{"100", 0, 100 * time.Millisecond},   // header alone
	} {
		got, err := DeadlineBudget(mk(tc.header), tc.bodyMS)
		if err != nil || got != tc.want {
			t.Errorf("DeadlineBudget(header=%q, body=%d) = %v, %v; want %v", tc.header, tc.bodyMS, got, err, tc.want)
		}
	}
	if _, err := DeadlineBudget(mk("-5"), 0); err == nil {
		t.Error("negative X-Deadline did not error")
	}
	if _, err := DeadlineBudget(mk("0"), 250); !errors.Is(err, ErrDeadlineExpired) {
		t.Errorf("X-Deadline 0: %v, want ErrDeadlineExpired", err)
	}
	if _, err := DeadlineBudget(mk("soon"), 0); err == nil || errors.Is(err, ErrDeadlineExpired) {
		t.Errorf("malformed X-Deadline: %v, want a parse error", err)
	}
}
