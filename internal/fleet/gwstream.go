package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/obs"
	"herdcats/internal/wire"
)

// streamBatch answers POST /v1/batch in the NDJSON wire format: the
// batch engine's frames merged onto one downstream encoder (remapped to
// the caller's request indices, in request order when req.Ordered),
// heartbeats while the merged stream is idle, and one terminal summary
// folding the upstream summaries' trace aggregates.
func (g *Gateway) streamBatch(ctx context.Context, w http.ResponseWriter, req wire.BatchRequest) {
	start := time.Now()
	w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	enc := wire.NewEncoder(w)
	stopHeartbeat := wire.Heartbeat(ctx, enc, g.cfg.heartbeatInterval(), start)
	defer stopHeartbeat()
	st := g.runBatch(ctx, req, wire.NewMerge(enc, req.Ordered))
	stopHeartbeat()

	sum := wire.NewSummary(len(req.Tests))
	for i := range st.status {
		sum.Counts[st.status[i]]++
		if st.cached[i] {
			sum.CacheHits++
		}
	}
	sum.ElapsedMS = time.Since(start).Milliseconds()
	sum.PhaseTotalsUS = st.phases
	sum.Enum = st.enum
	_ = enc.Encode(sum)
}

// runBatch is the gateway's one batch engine, behind both /v1/batch wire
// formats. It routes every row to its home backend by the same routeKey
// as /v1/run, sends each home's rows upstream as NDJSON streams of at
// most wire.MaxBatchTests rows (herdd's batch limit), then re-sends, one
// /v1/run per row along the key's failover ranking, every row the
// upstream did not deliver or shed with a retryable code — so a lost or
// overloaded backend costs latency, not verdicts. Each row's single
// frame goes to merge as it lands or, when merge is nil (the buffered
// format), is kept for response.
func (g *Gateway) runBatch(ctx context.Context, req wire.BatchRequest, merge *wire.Merge) *gwBatch {
	n := len(req.Tests)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &gwBatch{
		merge:   merge,
		cancel:  cancel,
		emitted: make([]bool, n),
		status:  make([]campaign.Status, n),
		cached:  make([]bool, n),
	}
	if merge == nil {
		st.frames = make([]any, n)
	}

	// Every row joins its home backend's group. A test that does not
	// parse travels too, and herdd answers it with its own error/v1 row.
	keys := make([]string, n)
	groups := map[string][]int{}
	for i, src := range req.Tests {
		keys[i] = routeKey(src, req.Model, req.Budget)
		home := g.homeBackend(keys[i])
		groups[home] = append(groups[home], i)
	}

	var wg sync.WaitGroup
	for name, rows := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(rows) > 0 && ctx.Err() == nil {
				chunk := rows[:min(len(rows), wire.MaxBatchTests)]
				rows = rows[len(chunk):]
				g.streamChunk(ctx, name, chunk, keys, req, st)
			}
		}()
	}
	wg.Wait()

	// Rows nothing delivered (the batch was cancelled first) still owe
	// their frame, mirroring the backend's never-started classification.
	for i := range st.emitted {
		if !st.emitted[i] {
			st.status[i] = campaign.StatusSkipped
			st.emit(i, wire.NewError(i, fmt.Sprintf("tests[%d]", i),
				wire.ErrorCode(http.StatusServiceUnavailable), "batch stopped before this test ran"))
		}
	}
	return st
}

// homeBackend picks the first backend along key's rendezvous ranking
// whose breaker is closed — the same placement route walks, but read via
// State() so grouping never consumes a half-open trial. When no breaker
// is closed the top-ranked backend is chosen anyway: failing open beats
// failing instantly when the whole fleet looks down.
func (g *Gateway) homeBackend(key string) string {
	ranked := rendezvous(key, g.names)
	for _, name := range ranked {
		if g.backends[name].breaker.State() == BreakerClosed {
			return name
		}
	}
	return ranked[0]
}

// resend posts batch row i alone as a /v1/run through runKey, along the
// row's own failover ranking.
func (g *Gateway) resend(ctx context.Context, key string, req wire.BatchRequest, i int) (*wire.RunResponse, error) {
	body, err := json.Marshal(wire.RunRequest{
		Litmus:     req.Tests[i],
		Model:      req.Model,
		Budget:     req.Budget,
		DeadlineMS: req.DeadlineMS,
	})
	if err != nil {
		return nil, err
	}
	raw, err := g.runKey(ctx, key, body)
	if err != nil {
		return nil, err
	}
	return decode[wire.RunResponse](raw)
}

// gwBatch is the per-row state of one batch run by the engine. The
// per-row slices are written exactly once, each by the row's owning
// goroutine (its group, or the pre/post loops which run with no groups in
// flight), so they need no lock; the fold fields do.
type gwBatch struct {
	merge   *wire.Merge // the downstream stream; nil when buffered
	frames  []any       // buffered only: each row's frame
	cancel  context.CancelFunc
	emitted []bool
	status  []campaign.Status
	cached  []bool

	mu     sync.Mutex
	phases map[string]int64
	enum   *obs.EnumSnapshot
}

// emit hands over row i's single frame; a write failure means the
// client is gone, so the whole fan-out winds down.
func (s *gwBatch) emit(i int, frame any) {
	s.emitted[i] = true
	if s.merge == nil {
		s.frames[i] = frame
	} else if s.merge.Emit(i, frame) != nil {
		s.cancel()
	}
}

// response gathers a buffered batch's frames into the BatchResponse
// herdd would have answered: report rows, cache flags and keys in
// request order.
func (s *gwBatch) response() *wire.BatchResponse {
	resp := &wire.BatchResponse{
		Report: &campaign.Report{},
		Cached: s.cached,
		Keys:   make([]string, len(s.frames)),
	}
	for i, frame := range s.frames {
		switch f := frame.(type) {
		case *wire.ResultFrame:
			resp.Keys[i] = f.Key
			resp.Report.Add(f.Result)
		case *wire.ErrorFrame:
			resp.Report.Add(campaign.JobResult{Name: f.Name, Status: s.status[i], Reason: f.Error.Message})
		}
	}
	return resp
}

func (s *gwBatch) emitResult(i int, key string, cached bool, res campaign.JobResult) {
	s.status[i] = res.Status
	s.cached[i] = cached
	s.emit(i, wire.NewResult(i, key, cached, res))
}

func (s *gwBatch) emitErrorBody(i int, body wire.ErrorBody) {
	s.status[i] = campaign.StatusError
	s.emit(i, &wire.ErrorFrame{
		Type:  wire.FrameError,
		Index: i,
		Name:  fmt.Sprintf("tests[%d]", i),
		Error: body,
	})
}

// foldSummary accumulates one upstream summary's trace aggregates.
func (s *gwBatch) foldSummary(f *wire.SummaryFrame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ph, us := range f.PhaseTotalsUS {
		if s.phases == nil {
			s.phases = map[string]int64{}
		}
		s.phases[ph] += us
	}
	if f.Enum != nil {
		if s.enum == nil {
			s.enum = &obs.EnumSnapshot{}
		}
		s.enum.Add(*f.Enum)
	}
}

// streamChunk sends rows — at most wire.MaxBatchTests of one home
// backend's — upstream as a single stream, remapping its chunk-local
// frame indices onto the caller's, then re-sends every row the stream
// left unanswered through resend, which routes along the row's own
// failover ranking: the rows of a dead home land elsewhere, and a row the
// home shed is retried with backoff.
func (g *Gateway) streamChunk(ctx context.Context, backend string, rows []int, keys []string, req wire.BatchRequest, st *gwBatch) {
	b := g.backends[backend]
	sub := wire.BatchRequest{
		Model:      req.Model,
		Budget:     req.Budget,
		DeadlineMS: req.DeadlineMS,
		Tests:      make([]string, len(rows)),
	}
	for ci, i := range rows {
		sub.Tests[ci] = req.Tests[i]
	}
	seen := make([]bool, len(rows))
	g.reg.Counter(`gw_backend_requests_total{backend="` + backend + `"}`).Inc()
	err := b.client.BatchStream(ctx, sub, func(frame any) error {
		switch f := frame.(type) {
		case *wire.ResultFrame:
			if f.Index < 0 || f.Index >= len(rows) || seen[f.Index] {
				return fmt.Errorf("gateway: backend %s: bogus frame index %d", backend, f.Index)
			}
			seen[f.Index] = true
			st.emitResult(rows[f.Index], f.Key, f.Cached, f.Result)
		case *wire.ErrorFrame:
			if f.Index < 0 {
				// The whole upstream batch died mid-flight; abort the
				// stream and let the re-send cover what is left.
				return fmt.Errorf("gateway: backend %s: stream error: %s", backend, f.Error.Message)
			}
			if f.Index >= len(rows) || seen[f.Index] {
				return fmt.Errorf("gateway: backend %s: bogus frame index %d", backend, f.Index)
			}
			seen[f.Index] = true
			if !retryableCode(f.Error.Code) {
				st.emitErrorBody(rows[f.Index], f.Error)
			}
		case *wire.SummaryFrame:
			st.foldSummary(f)
		case *wire.HeartbeatFrame:
			// Absorbed: the gateway heartbeats the merged stream itself,
			// and forwarding per-backend pulses would just be noise.
		}
		return nil
	})
	switch {
	case err == nil:
		b.breaker.Success()
	case Retryable(err):
		b.breaker.Failure()
		g.reg.Counter(`gw_backend_failures_total{backend="` + backend + `"}`).Inc()
	}

	for _, i := range rows {
		if st.emitted[i] {
			continue
		}
		if ctx.Err() != nil {
			return // runBatch's post-sweep owes these their frame
		}
		g.reg.Counter("gw_reroutes_total").Inc()
		resp, rerr := g.resend(ctx, keys[i], req, i)
		if rerr != nil {
			_, body := errorBodyOf(rerr)
			st.emitErrorBody(i, body)
			continue
		}
		st.emitResult(i, resp.Key, resp.Cached, jobResultFromRun(resp))
	}
}

// retryableCode reports whether a row's error/v1 code is one a re-send
// may cure — a shed (429) or any 5xx — by the same contract classify
// applies to whole responses.
func retryableCode(code string) bool {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout} {
		if code == wire.ErrorCode(status) {
			return true
		}
	}
	return false
}

// jobResultFromRun folds one re-sent row's run into its campaign row.
func jobResultFromRun(resp *wire.RunResponse) campaign.JobResult {
	res := campaign.JobResult{
		Name:       resp.Outcome.Test,
		Model:      resp.Outcome.Model,
		Candidates: resp.Outcome.Candidates,
		Valid:      resp.Outcome.Valid,
		Attempts:   1,
		ElapsedMS:  resp.ElapsedMS,
	}
	if len(resp.Outcome.States) > 0 {
		res.States = make(map[string]int, len(resp.Outcome.States))
		for _, s := range resp.Outcome.States {
			res.States[s.State] = s.Count
		}
	}
	switch resp.Verdict {
	case "Allowed":
		res.Status = campaign.StatusOK
	case "Forbidden":
		res.Status = campaign.StatusForbidden
	default:
		res.Status = campaign.StatusIncomplete
		res.Reason = resp.Outcome.Reason
	}
	return res
}
