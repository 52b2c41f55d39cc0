// Package wire is the fleet's shared wire schema: the JSON request and
// response types of the /v1 API, the error envelope, and the versioned
// NDJSON frame protocol that streams batch verdicts.
//
// Before this package the types lived in internal/serve and were re-used
// (or re-implemented) by internal/fleet, cmd/herd-gw and cmd/herd; now
// there is one definition, one encoder, one decoder, and every layer —
// node, gateway, client — speaks bytes produced by the same code.
//
// # Buffered wire format
//
// POST /v1/run and POST /v1/batch answer with one compact JSON document
// (RunResponse, BatchResponse). Every non-2xx response is the envelope
// {"error":{"code","message"}} (ErrorBody); clients switch on the code.
//
// # Streaming wire format
//
// A /v1/batch request carrying "Accept: application/x-ndjson" is answered
// as newline-delimited JSON: one frame per line, flushed as written, so a
// million-test campaign is delivered verdict by verdict instead of being
// buffered whole on both sides. Each frame is a JSON object whose "type"
// field names a versioned schema:
//
//	result/v1     one test's verdict (index, key, cached, campaign row)
//	error/v1      one test's failure — or, at index -1, the stream's
//	summary/v1    the terminal frame: totals, cache hits, phase aggregates
//	heartbeat/v1  emitted under idle so proxies and clients see liveness
//
// Exactly one frame is emitted per test (result/v1 or error/v1, in
// completion order, or in request order when BatchRequest.Ordered is
// set), any number of heartbeat/v1 frames may appear interleaved, and a
// well-formed stream ends with exactly one summary/v1. A stream that was
// cut mid-frame is detected by the decoder (ErrTruncated) — the frames
// before the cut remain usable, mirroring the torn-line tolerance of the
// mining journal.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ContentTypeNDJSON selects (in Accept) and labels (in Content-Type) the
// streaming batch wire format.
const ContentTypeNDJSON = "application/x-ndjson"

// ContentTypeJSON labels the buffered wire format.
const ContentTypeJSON = "application/json"

// DeadlineHeader carries a request's remaining deadline budget in
// milliseconds. A gateway decrements it hop-by-hop (subtracting its own
// queueing and transfer time), so a deadline set once at the edge bounds
// the whole call tree; a request arriving with no budget left is shed
// before any work happens.
const DeadlineHeader = "X-Deadline"

// ErrDeadlineExpired: the request arrived with its deadline budget
// already spent.
var ErrDeadlineExpired = errors.New("deadline: no budget remaining")

// DeadlineBudget resolves a request's deadline budget from the
// X-Deadline header and the body's deadline_ms field (tighter wins;
// 0 = unbounded), alike at herdd and the gateway.
func DeadlineBudget(r *http.Request, bodyMS int64) (time.Duration, error) {
	ms := bodyMS
	if h := r.Header.Get(DeadlineHeader); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %q is not a millisecond count", DeadlineHeader, h)
		}
		if v <= 0 {
			return 0, ErrDeadlineExpired
		}
		if ms == 0 || v < ms {
			ms = v
		}
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// TenantHeader names the quota account a request is charged to. Nodes
// meter admission per tenant (token bucket, see serve.Config.TenantRate);
// the gateway forwards the header verbatim so the whole fleet shares one
// quota ledger per tenant.
const TenantHeader = "X-Tenant"

// RetryAfterHeader is the standard backoff hint on a 429 shed. The
// gateway propagates a backend's value verbatim.
const RetryAfterHeader = "Retry-After"

// MaxBatchTests bounds the tests of one herdd /v1/batch request (more is
// 413). The gateway accepts larger batches and sends them upstream in
// sub-batches of at most this many tests.
const MaxBatchTests = 256

// WantsStream reports whether the request asked for the NDJSON streaming
// wire format (any Accept member naming it; parameters ignored).
func WantsStream(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, member := range strings.Split(accept, ",") {
			mt, _, _ := strings.Cut(strings.TrimSpace(member), ";")
			if strings.TrimSpace(mt) == ContentTypeNDJSON {
				return true
			}
		}
	}
	return false
}

// ErrorBody is the payload of the error envelope: a stable machine-
// readable code (derived from the HTTP status) plus a human-readable
// message. Every non-2xx response is `{"error": ErrorBody}`.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the JSON error envelope itself.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorCode names an HTTP status for the envelope; clients switch on the
// code, not the message text.
func ErrorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusInternalServerError:
		return "internal"
	case http.StatusBadGateway:
		return "bad_gateway"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	}
	return "error"
}

// WriteJSON writes v as one compact JSON document and a newline — the
// buffered wire format shared by every /v1 endpoint.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the error envelope with the code derived from the
// status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteEnvelope(w, status, ErrorBody{
		Code:    ErrorCode(status),
		Message: fmt.Sprintf(format, args...),
	})
}

// WriteEnvelope writes an explicit error envelope — the path a gateway
// uses to pass an upstream code through byte-compatibly.
func WriteEnvelope(w http.ResponseWriter, status int, body ErrorBody) {
	WriteJSON(w, status, ErrorEnvelope{Error: body})
}

// tenantKey carries the quota account through a context, so clients deep
// in the fleet stack can stamp TenantHeader without threading a parameter
// through every call.
type tenantKey struct{}

// WithTenant returns ctx carrying the tenant quota account.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// Tenant returns the quota account carried by ctx, if any.
func Tenant(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// DecodeBody decodes one JSON value into v, rejecting trailing garbage.
// It never panics on malformed input (see serve's fuzz test).
func DecodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("body: trailing data after the request object")
	}
	return nil
}

// decodeStatus maps a ReadRequest error to its HTTP status: 413 when the
// body limit tripped, 400 otherwise.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ReadRequest decodes and validates the body of a /v1 request the way
// every tier does, so herdd and the gateway answer a bad request alike:
// more than limit bytes is 413, anything but exactly one JSON value is
// 400, and so is a value failing v.Validate. It returns the body as read,
// for the gateway to forward; on failure it writes the error envelope
// and returns false.
func ReadRequest(w http.ResponseWriter, r *http.Request, limit int64, v interface{ Validate() error }) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		err = fmt.Errorf("body: %w", err)
	} else if err = DecodeBody(bytes.NewReader(body), v); err == nil {
		err = v.Validate()
	}
	if err != nil {
		WriteError(w, decodeStatus(err), "%v", err)
		return nil, false
	}
	return body, true
}
