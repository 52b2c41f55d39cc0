package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptrace"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"herdcats/internal/wire"
)

// item is one unit of closed-loop work: a /v1/run of one pair, or a
// streamed /v1/batch of several tests under one model.
type item struct {
	pairs []pair
	batch bool
}

// workload is what a run drives: the items of one pass, and whether the
// passes reuse one warmed stack or each start on fresh nodes. With
// batchSize set, each item holds one model's tests, and every pass deals
// them into fresh batches of that size (see pass).
type workload struct {
	name      string
	items     []item
	warm      bool
	batchSize int
}

// passVerdicts is the number of verdicts in one pass.
func (w *workload) passVerdicts() int64 {
	n := 0
	for _, it := range w.items {
		n += len(it.pairs)
	}
	return int64(n)
}

// distinct lists the workload's pairs once each, in item order.
func (w *workload) distinct() []pair {
	seen := map[pair]bool{}
	var out []pair
	for _, it := range w.items {
		for _, p := range it.pairs {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// result accumulates one measured segment.
type result struct {
	attempted, failed int
	latMS             []float32 // per delivered correct verdict; float32 halves a long warm run's samples next to the stack's own memory
	firstMS           []float32 // per request: first response byte or first result frame
	batchRate         []float64 // verdicts per second of each batch
	setupS            []float64
	rootNS            float64 // Σ request round trips; a batch counts once
	allocs            uint64
	gcPause           time.Duration
	gcCPU, totalCPU   float64
	peakRSS           float64 // bytes
	windows           []window
	stacks            []*stack
	errs              []string // first few failure reasons
}

// fail counts n failed verdicts and keeps the first few reasons.
func (r *result) fail(n int, why ...string) {
	r.failed += n
	for _, w := range why {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, w)
		}
	}
}

// driver runs the closed loop: clients goroutines, each sending its next
// request only when the previous one has completed.
type driver struct {
	w       *workload
	refs    map[pair]reference
	clients int
	rng     *rand.Rand
	tr      *tracer // nil: untraced
	stackID int

	mu        sync.Mutex
	res       *result
	delivered atomic.Int64 // correct verdicts so far, for the meter's windows
}

// segment measures the workload for d and adds what it saw to res; a
// warm segment spends d over rounds set-ups.
func (dv *driver) segment(ctx context.Context, d time.Duration, rounds int, res *result) error {
	dv.res = res
	if dv.w.warm {
		return dv.warmSegment(ctx, d, rounds)
	}
	return dv.coldSegment(ctx, d)
}

func (dv *driver) newStack() (*stack, error) {
	dv.stackID++
	return newStack(dv.stackID, dv.tr)
}

// pass is one pass's items in sending order, drawn from the run's seeded
// stream. Batches are dealt afresh each pass, each keeping its tests in
// corpus order: the gateway splits a batch by each test's home node, so
// new groupings every pass average over many splits instead of repeating
// the few one fixed batching would give.
func (dv *driver) pass() []item {
	var out []item
	for _, it := range dv.w.items {
		if dv.w.batchSize == 0 {
			out = append(out, it)
			continue
		}
		idx := dv.rng.Perm(len(it.pairs))
		for len(idx) > 0 {
			part := slices.Clone(idx[:min(dv.w.batchSize, len(idx))])
			idx = idx[len(part):]
			slices.Sort(part)
			b := item{batch: true}
			for _, i := range part {
				b.pairs = append(b.pairs, it.pairs[i])
			}
			out = append(out, b)
		}
	}
	dv.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldSegment runs back-to-back passes, each on a fresh stack. A pass's
// stack starts when a client first needs work from it, while the other
// client may still finish the previous pass on the old stack, so no core
// idles at pass boundaries; the old stack shuts down with its last reply.
func (dv *driver) coldSegment(ctx context.Context, d time.Duration) error {
	type pass struct {
		st      *stack
		pending int
		done    bool // every item dispatched
	}
	var (
		mu       sync.Mutex
		cur      *pass
		items    []item
		next     int
		firstErr error
	)
	closePass := func(p *pass) {
		if err := p.st.close(); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	}
	// take hands out the next item, starting a new pass when the current
	// one is fully dispatched; retire is a finished pass for the caller to
	// close outside the lock.
	take := func(deadline time.Time) (it item, p, retire *pass, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || time.Now().After(deadline) {
			return item{}, nil, nil, false
		}
		if cur == nil || next == len(items) {
			if cur != nil {
				cur.done = true
				if cur.pending == 0 {
					retire = cur
				}
			}
			t0 := time.Now()
			st, err := dv.newStack()
			if err != nil {
				firstErr = err
				return item{}, nil, retire, false
			}
			dv.addSetup(time.Since(t0))
			cur = &pass{st: st}
			dv.res.stacks = append(dv.res.stacks, st)
			items, next = dv.pass(), 0
		}
		next++
		cur.pending++
		return items[next-1], cur, retire, true
	}
	finish := func(p *pass) {
		mu.Lock()
		p.pending--
		last := p.done && p.pending == 0
		mu.Unlock()
		if last {
			closePass(p)
		}
	}

	m := startMeter(&dv.delivered, dv.w.passVerdicts())
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < dv.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				it, p, retire, ok := take(deadline)
				if retire != nil {
					closePass(retire)
				}
				if !ok {
					return
				}
				dv.send(ctx, p.st, it)
				finish(p)
			}
		}()
	}
	wg.Wait()
	m.stop(dv.res)
	mu.Lock()
	p := cur
	mu.Unlock()
	if p != nil && !p.done {
		closePass(p)
	}
	return firstErr
}

// warmSegment runs rounds rounds. Each starts a stack and fills its
// caches with one pass (set-up, off the clock), then measures passes on
// it until the round's share of d is spent.
func (dv *driver) warmSegment(ctx context.Context, d time.Duration, rounds int) error {
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		st, err := dv.newStack()
		if err != nil {
			return err
		}
		dv.res.stacks = append(dv.res.stacks, st)
		fill := &driver{w: dv.w, refs: dv.refs, clients: dv.clients, res: &result{}}
		fill.loop(ctx, st, dv.pass(), time.Time{})
		if fill.res.failed > 0 {
			st.close()
			return fmt.Errorf("cache fill: %d of %d verdicts failed: %v", fill.res.failed, fill.res.attempted, fill.res.errs)
		}
		dv.addSetup(time.Since(t0))

		m := startMeter(&dv.delivered, dv.w.passVerdicts())
		dv.loop(ctx, st, nil, time.Now().Add(d/time.Duration(rounds)))
		m.stop(dv.res)
		if err := st.close(); err != nil {
			return err
		}
	}
	return nil
}

// loop runs the closed loop on one stack: over items once when deadline
// is zero, else over fresh passes until deadline.
func (dv *driver) loop(ctx context.Context, st *stack, items []item, deadline time.Time) {
	var mu sync.Mutex
	next := 0
	take := func() (item, bool) {
		mu.Lock()
		defer mu.Unlock()
		if deadline.IsZero() {
			if next == len(items) {
				return item{}, false
			}
		} else {
			if time.Now().After(deadline) {
				return item{}, false
			}
			if next == len(items) {
				items, next = dv.pass(), 0
			}
		}
		next++
		return items[next-1], true
	}
	var wg sync.WaitGroup
	for c := 0; c < dv.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				it, ok := take()
				if !ok {
					return
				}
				dv.send(ctx, st, it)
			}
		}()
	}
	wg.Wait()
}

func (dv *driver) addSetup(d time.Duration) {
	dv.mu.Lock()
	dv.res.setupS = append(dv.res.setupS, d.Seconds())
	dv.mu.Unlock()
}

// send runs one item and records it; with a tracer it also records the
// client span and queues the verdicts for replay.
func (dv *driver) send(ctx context.Context, st *stack, it item) {
	var id uint64
	if dv.tr != nil {
		id = dv.tr.newID()
		ctx = withHop(ctx, hop{id: id})
	}
	var first time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotFirstResponseByte: func() {
			if first.IsZero() {
				first = time.Now()
			}
		},
	})
	var o outcome
	start := time.Now()
	if it.batch {
		o = dv.sendBatch(ctx, st, it, start)
	} else {
		o = dv.sendRun(ctx, st, it.pairs[0], start)
	}
	end := time.Now()
	if !o.firstFrame.IsZero() {
		first = o.firstFrame
	}

	dv.mu.Lock()
	r := dv.res
	r.attempted += len(it.pairs)
	r.latMS = append(r.latMS, o.latMS...)
	r.rootNS += float64(end.Sub(start))
	if !first.IsZero() {
		r.firstMS = append(r.firstMS, float32(ms(first.Sub(start))))
	}
	if it.batch {
		r.batchRate = append(r.batchRate, float64(len(it.pairs))/end.Sub(start).Seconds())
	}
	r.fail(min(o.failed, len(it.pairs)), o.fails...)
	dv.mu.Unlock()

	if dv.tr == nil {
		return
	}
	dv.tr.add(span{ID: id, Sub: dv.tr.newID(), Name: spanClient,
		Start: int64(start.Sub(dv.tr.epoch)), End: int64(end.Sub(dv.tr.epoch))})
	dv.tr.addPending(pendingReplay{id: id, stack: st.id, pairs: it.pairs, wasCached: o.wasCached})
}

// outcome is what one request delivered.
type outcome struct {
	latMS      []float32
	cached     int
	wasCached  []bool
	firstFrame time.Time
	failed     int      // verdicts that failed
	fails      []string // why
}

// sample records one delivered verdict's latency.
func (o *outcome) sample(lat time.Duration) {
	o.latMS = append(o.latMS, float32(ms(lat)))
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.fails = append(o.fails, fmt.Sprintf(format, args...))
}

func (dv *driver) sendRun(ctx context.Context, st *stack, p pair, start time.Time) outcome {
	o := outcome{wasCached: []bool{false}}
	resp, err := st.client.Run(ctx, wire.RunRequest{Litmus: p.src, Model: wire.ModelSpec{Name: p.model}})
	lat := time.Since(start)
	if err != nil {
		o.fail(1, "run: %v", err)
		return o
	}
	if err := checkRun(resp, dv.refs[p]); err != nil {
		o.fail(1, "%s under %s: %v", resp.Outcome.Test, p.model, err)
		return o
	}
	o.sample(lat)
	dv.delivered.Add(1)
	if resp.Cached {
		o.cached, o.wasCached[0] = 1, true
	}
	return o
}

func (dv *driver) sendBatch(ctx context.Context, st *stack, it item, start time.Time) outcome {
	n := len(it.pairs)
	o := outcome{wasCached: make([]bool, n)}
	seen := make([]bool, n)
	req := wire.BatchRequest{Model: wire.ModelSpec{Name: it.pairs[0].model}}
	for _, p := range it.pairs {
		req.Tests = append(req.Tests, p.src)
	}
	err := st.client.BatchStream(ctx, req, func(frame any) error {
		switch f := frame.(type) {
		case *wire.ResultFrame:
			if f.Index < 0 || f.Index >= n {
				o.fail(1, "result frame index %d out of range", f.Index)
				return nil
			}
			if seen[f.Index] {
				o.fail(1, "duplicate frame for index %d", f.Index)
				return nil
			}
			seen[f.Index] = true
			if o.firstFrame.IsZero() {
				o.firstFrame = time.Now()
			}
			if err := checkResult(f.Result, dv.refs[it.pairs[f.Index]]); err != nil {
				o.fail(1, "%s under %s: %v", f.Result.Name, req.Model.Name, err)
				return nil
			}
			o.sample(time.Since(start))
			dv.delivered.Add(1)
			if f.Cached {
				o.cached++
				o.wasCached[f.Index] = true
			}
		case *wire.ErrorFrame:
			switch {
			case f.Index < 0 || f.Index >= n:
				o.fail(0, "stream error frame: %s", f.Error.Message) // its rows count as missing
			case seen[f.Index]:
				o.fail(1, "duplicate frame for index %d: %s", f.Index, f.Error.Message)
			default:
				seen[f.Index] = true
				o.fail(1, "error frame %d: %s", f.Index, f.Error.Message)
			}
		}
		return nil
	})
	if err != nil {
		o.fail(0, "batch stream: %v", err)
	}
	missing := 0
	for _, ok := range seen {
		if !ok {
			missing++
		}
	}
	if missing > 0 {
		o.fail(missing, "%d of %d indices got no frame", missing, n)
	}
	return o
}

// window is a stretch of measured time; see meter.
type window struct {
	secs     float64
	verdicts int64
	cpuMS    float64
}

func (w window) cpuPerVerdict() float64 { return w.cpuMS / float64(w.verdicts) }

// quiet pools the run's least-disturbed windows — the share q of them
// with the least CPU per verdict — and returns their verdicts per second,
// their CPU ms per verdict, and how many windows it kept. The host's other
// tenants only ever slow the bench down, in bursts from a fraction of a
// second to most of a run; identical work then costs up to 60% more CPU.
// Pooling the quieter windows measures the stack rather than its
// neighbours.
func quiet(r *result, q float64) (rate, cpu float64, kept int) {
	ws := slices.Clone(r.windows)
	if len(ws) == 0 {
		return 0, 0, 0
	}
	slices.SortFunc(ws, func(a, b window) int { return cmp.Compare(a.cpuPerVerdict(), b.cpuPerVerdict()) })
	ws = ws[:max(1, int(math.Ceil(q*float64(len(ws)))))]
	var secs, cpuMS float64
	var n int64
	for _, w := range ws {
		secs += w.secs
		cpuMS += w.cpuMS
		n += w.verdicts
	}
	return float64(n) / secs, cpuMS / float64(n), len(ws)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meter measures the process over one measured segment: allocations, GC
// pause and CPU, and peak resident memory. It also samples the
// delivered-verdict count and the user+sys CPU every tick and cuts the
// segment into windows, from which quiet takes the time metrics.
type meter struct {
	ms0         runtime.MemStats
	gc0         gcCPU
	delivered   *atomic.Int64
	minVerdicts int64
	stopCh      chan struct{}
	done        chan meterSamples
}

type meterSample struct {
	at        time.Time
	cpu       time.Duration
	delivered int64
}

type meterSamples struct {
	peakRSS float64
	samples []meterSample
}

const meterTick = 100 * time.Millisecond

// windowMin is a window's shortest span. A window also holds at least a
// pass's worth of verdicts, so each one carries the workload's whole mix
// (a coherence batch's cheap and expensive tests alike).
const windowMin = time.Second

func startMeter(delivered *atomic.Int64, minVerdicts int64) *meter {
	m := &meter{delivered: delivered, minVerdicts: minVerdicts, stopCh: make(chan struct{}), done: make(chan meterSamples)}
	runtime.ReadMemStats(&m.ms0)
	m.gc0 = readGCCPU()
	first := m.sample()
	go func() {
		out := meterSamples{samples: []meterSample{first}}
		tick := time.NewTicker(meterTick)
		defer tick.Stop()
		for {
			if rss := residentBytes(); rss > out.peakRSS {
				out.peakRSS = rss
			}
			select {
			case <-tick.C:
				out.samples = append(out.samples, m.sample())
			case <-m.stopCh:
				m.done <- out
				return
			}
		}
	}()
	return m
}

func (m *meter) sample() meterSample {
	return meterSample{at: time.Now(), cpu: processCPU(), delivered: m.delivered.Load()}
}

func (m *meter) stop(r *result) {
	last := m.sample()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.allocs += ms1.Mallocs - m.ms0.Mallocs
	r.gcPause += time.Duration(ms1.PauseTotalNs - m.ms0.PauseTotalNs)
	gc1 := readGCCPU()
	r.gcCPU += gc1.gc - m.gc0.gc
	r.totalCPU += gc1.total - m.gc0.total
	close(m.stopCh)
	out := <-m.done
	if out.peakRSS > r.peakRSS {
		r.peakRSS = out.peakRSS
	}
	samples := append(out.samples, last)
	cut := func(from, to meterSample) window {
		return window{secs: to.at.Sub(from.at).Seconds(), verdicts: to.delivered - from.delivered, cpuMS: ms(to.cpu - from.cpu)}
	}
	from, before := samples[0], len(r.windows)
	for _, s := range samples[1:] {
		if w := cut(from, s); w.secs >= windowMin.Seconds() && w.verdicts >= m.minVerdicts {
			r.windows = append(r.windows, w)
			from = s
		}
	}
	// A segment too short for one full window counts as one window.
	if w := cut(samples[0], last); len(r.windows) == before && w.verdicts > 0 {
		r.windows = append(r.windows, w)
	}
}
