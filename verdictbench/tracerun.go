package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// probeBudget bounds the single-goroutine per-candidate probe.
const probeBudget = 2 * time.Second

// traceAlternations is how many untraced/traced segment pairs a traced
// run alternates through, so drift over the run (heap growth, a busy
// host) lands on both sides of the tracing-overhead comparison.
const traceAlternations = 3

// traced runs the workload for d, alternating untraced and traced
// segments, then replays the traced verdicts layer by layer and reports
// the per-layer metrics.
func traced(ctx context.Context, dv *driver, d time.Duration, rec *record) (output, error) {
	untraced, tres := &result{}, &result{}
	tr := newTracer()
	seg := d / (2 * traceAlternations)
	for i := 0; i < traceAlternations; i++ {
		dv.tr = nil
		if err := dv.segment(ctx, seg, 1, untraced); err != nil {
			return output{}, err
		}
		dv.tr = tr
		if err := dv.segment(ctx, seg, 1, tres); err != nil {
			return output{}, err
		}
	}
	dv.tr = nil
	if err := tr.replayAll(ctx); err != nil {
		return output{}, fmt.Errorf("replay: %w", err)
	}
	pairs := dv.w.distinct()
	dv.rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	ps, err := probe(ctx, pairs, probeBudget)
	if err != nil {
		return output{}, fmt.Errorf("probe: %w", err)
	}

	// herdd's program cache compiles each test once per node: spread the
	// stack's real compile count over the verdicts it simulated.
	simulated := map[int]int{}
	for _, r := range tr.replays {
		simulated[r.Stack] += r.Simulated
	}
	compileShare := map[int]float64{}
	var m stackMetrics
	for _, st := range append(untraced.stacks, tres.stacks...) {
		m.shed += st.metrics.shed
		m.waitSumUS += st.metrics.waitSumUS
		m.waitCount += st.metrics.waitCount
		m.reroutes += st.metrics.reroutes
	}
	var traceReroutes float64
	for _, st := range tres.stacks {
		if n := simulated[st.id]; n > 0 {
			compileShare[st.id] = float64(st.metrics.programMisses) / float64(n)
		}
		traceReroutes += st.metrics.reroutes
	}
	acc, err := account(tr, compileShare)
	if err != nil {
		return output{}, err
	}

	v := float64(acc.verdicts)
	// Layer costs come from the probe, per verdict simulated from
	// scratch, so they describe the workload's inputs on every workload;
	// the traced requests give the shares.
	pc, np := ps.costs, float64(ps.pairs)
	us := func(ns int64) float64 { return float64(ns) / np / 1e3 }
	var retries, hedges uint64
	for _, st := range append(untraced.stacks, tres.stacks...) {
		retries += st.client.Stats().Retries.Load()
		hedges += st.client.Stats().Hedges.Load()
	}
	metrics := map[string]metric{
		"litmus.parse_us":                {us(pc.Parse), "us"},
		"exec.compile_us":                {us(pc.Compile), "us"},
		"exec.traces_us":                 {us(pc.Traces), "us"},
		"exec.search_us":                 {us(pc.Search), "us"},
		"exec.skeletons":                 {ratio(pc.Skeletons, ps.pairs), "count"},
		"exec.candidates":                {ratio(pc.Candidates, ps.pairs), "count"},
		"exec.candidates_per_skeleton":   {ratio(pc.Candidates, pc.Skeletons), "ratio"},
		"exec.search_ns_per_candidate":   {ratio(int(pc.Search), pc.Candidates), "ns"},
		"exec.allocs_per_candidate":      {ratio(int(ps.searchAllocs), pc.Candidates), "count"},
		"cat.check_ns_per_candidate":     {ratio(int(ps.cloneCheckNS), pc.Candidates), "ns"},
		"cat.check_allocs_per_candidate": {ratio(int(ps.checkAllocs), pc.Candidates), "count"},
		"sim.simulate_us":                {us(pc.Simulate), "us"},
		"sim.self_us":                    {us(pc.Simulate - pc.Search - pc.Check), "us"},
		"memo.key_us":                    {us(pc.Key), "us"},
		"memo.hit_ratio":                 {ratio(acc.cached, acc.verdicts), "ratio"},
		"serve.self_us":                  {acc.rows["serve"] / v / 1e3, "us"},
		"serve.shed":                     {m.shed, "count"},
		"serve.queue_wait_us":            {safeDiv(m.waitSumUS, m.waitCount), "us"},
		"wire.first_frame_ms":            {percentile(untraced.firstMS, 50), "ms"},
		"campaign.verdicts_per_batch_s":  {percentile(untraced.batchRate, 50), "1/s"},
		"fleet.hop_us":                   {acc.rows["fleet"] / v / 1e3, "us"},
		"fleet.retries":                  {m.reroutes + float64(retries), "count"},
		"fleet.hedges":                   {float64(hedges), "count"},
		"fleet.affinity_hit_ratio":       {1 - safeDiv(traceReroutes, float64(acc.upstream)), "ratio"},
		"runtime.gc_cpu_frac":            {safeDiv(untraced.gcCPU, untraced.totalCPU), "frac"},
		"runtime.gc_pause_ms":            {ms(untraced.gcPause), "ms"},
	}

	// Layer rows: shares, the dominant layer and the layer-sum check.
	total := 0.0
	for _, k := range layerRows {
		total += acc.rows[k]
	}
	lr := &layerRecord{Shares: map[string]float64{}, SumTolerance: sumTolerance, NegTolerance: negTolerance}
	best := -1.0
	for _, k := range layerRows {
		share := safeDiv(acc.rows[k], total)
		lr.Shares[k] = share
		metrics["share."+k] = metric{share, "frac"}
		if share > best {
			best, lr.Dominant = share, k
		}
		if share < -negTolerance {
			lr.CheckProblems = append(lr.CheckProblems, fmt.Sprintf("row %s is %.1f%% of the total: a child layer exceeds its parent", k, 100*share))
		}
	}
	untracedPer := safeDiv(untraced.rootNS, float64(untraced.attempted))
	lr.UntracedUS = untracedPer / 1e3
	lr.TracedUS = acc.rootNS / v / 1e3
	lr.RowsUS = total / v / 1e3
	sumErr := safeDiv(total/v-untracedPer, untracedPer)
	metrics["trace.sum_error_frac"] = metric{sumErr, "frac"}
	metrics["trace.overhead_p50_ms"] = metric{percentile(tres.latMS, 50) - percentile(untraced.latMS, 50), "ms"}
	if sumErr > sumTolerance || sumErr < -sumTolerance {
		lr.CheckProblems = append(lr.CheckProblems, fmt.Sprintf("layer rows sum to %.1f us per verdict, untraced end-to-end is %.1f us (%+.1f%%, tolerance ±%.0f%%)",
			lr.RowsUS, lr.UntracedUS, 100*sumErr, 100*sumTolerance))
	}
	lr.CheckPassed = len(lr.CheckProblems) == 0

	if dir := ".bench_build"; dirExists(dir) {
		lr.SpansFile = filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", rec.Workload, rec.Seed))
		if err := tr.write(lr.SpansFile); err != nil {
			return output{}, err
		}
	}
	rec.Layers = lr
	rec.Samples["traced_requests"] = acc.requests
	rec.Samples["traced_verdicts"] = acc.verdicts
	rec.Samples["untraced_verdicts"] = untraced.attempted - untraced.failed
	rec.Samples["probe_pairs"] = ps.pairs
	rec.Samples["first_frame"] = len(untraced.firstMS)
	rec.Samples["batches"] = len(untraced.batchRate)
	rec.Failures = append(untraced.errs, tres.errs...)

	attempted := untraced.attempted + tres.attempted
	failed := untraced.failed + tres.failed
	return output{
		Correct:   failed == 0 && lr.CheckPassed,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

func ratio(a, b int) float64 { return safeDiv(float64(a), float64(b)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func dirExists(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}
