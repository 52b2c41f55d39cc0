package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"herdcats/internal/cat"
	"herdcats/internal/core"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
	"herdcats/internal/sim"
)

// layerCost is what one verdict costs in each layer below herdd's handler,
// in nanoseconds, measured by calling the layer's public function from the
// bench: litmus.Parse, memo.Key, exec.Compile, Program.ThreadTraces,
// Program.Search with a no-op yield, the compiled cat Evaluator.Check on
// each candidate, and sim.Simulate. Search includes the thread traces;
// Simulate includes a search and the checks.
type layerCost struct {
	Parse      int64 `json:"parse_ns"`
	Key        int64 `json:"key_ns"`
	Compile    int64 `json:"compile_ns"`
	Traces     int64 `json:"traces_ns"`
	Search     int64 `json:"search_ns"`
	Check      int64 `json:"check_ns"`
	Simulate   int64 `json:"simulate_ns"`
	Skeletons  int   `json:"skeletons"`
	Candidates int   `json:"candidates"`
	Simulated  int   `json:"simulated"`
}

func (c *layerCost) add(o layerCost) {
	c.Parse += o.Parse
	c.Key += o.Key
	c.Compile += o.Compile
	c.Traces += o.Traces
	c.Search += o.Search
	c.Check += o.Check
	c.Simulate += o.Simulate
	c.Skeletons += o.Skeletons
	c.Candidates += o.Candidates
	c.Simulated += o.Simulated
}

// replayVerdict repeats, layer by layer, the work herdd did for one
// verdict: parse and key always, the simulation layers only when herdd
// simulated (the reply was not served from its cache).
func replayVerdict(ctx context.Context, p pair, simulated bool) (layerCost, error) {
	var c layerCost
	t0 := time.Now()
	t, err := litmus.Parse(p.src)
	c.Parse = int64(time.Since(t0))
	if err != nil {
		return c, err
	}
	m, err := cat.Builtin(p.model)
	if err != nil {
		return c, err
	}
	t0 = time.Now()
	_ = memo.Key(memo.CanonicalTest(t), memo.ModelID(m), exec.Budget{})
	c.Key = int64(time.Since(t0))
	if !simulated {
		return c, nil
	}
	c.Simulated = 1

	t0 = time.Now()
	prog, err := exec.Compile(t)
	c.Compile = int64(time.Since(t0))
	if err != nil {
		return c, err
	}
	t0 = time.Now()
	if c.Skeletons, err = skeletons(prog); err != nil {
		return c, err
	}
	c.Traces = int64(time.Since(t0))

	t0 = time.Now()
	if c.Candidates, err = search(ctx, prog); err != nil {
		return c, err
	}
	c.Search = int64(time.Since(t0))

	// The check is timed call by call inside a second search rather than
	// over cloned candidates: clones would add garbage, and GC work, that
	// herdd never made.
	ev := evaluator(m)
	err = prog.Search(ctx, exec.Request{}, func(x *exec.Candidate) bool {
		t0 := time.Now()
		ev.Check(x.X)
		c.Check += int64(time.Since(t0))
		return true
	})
	if err != nil {
		return c, err
	}

	t0 = time.Now()
	if _, err := sim.Simulate(ctx, sim.Request{Program: prog, Checker: m}); err != nil {
		return c, err
	}
	c.Simulate = int64(time.Since(t0))
	return c, nil
}

// skeletons is ∏ len(ThreadTraces): the cross-thread products the search
// expands.
func skeletons(p *exec.Program) (int, error) {
	n := 1
	for tid := range p.Threads {
		ts, err := p.ThreadTraces(tid)
		if err != nil {
			return 0, err
		}
		n *= len(ts)
	}
	return n, nil
}

func search(ctx context.Context, p *exec.Program) (int, error) {
	n := 0
	err := p.Search(ctx, exec.Request{}, func(*exec.Candidate) bool { n++; return true })
	return n, err
}

// evaluator is the per-search checker sim.Simulate would use for m.
func evaluator(m *cat.Model) core.Checker {
	if ev := m.NewEvaluator(); ev != nil {
		return ev
	}
	return m
}

// probeStats are the layer costs of the workload's pairs, measured one
// pair at a time on one goroutine with the serving stacks shut down, so
// the process-wide allocation counter sees only the call being measured.
type probeStats struct {
	pairs                     int
	costs                     layerCost // replayVerdict with simulation, summed
	cloneCheckNS              int64     // Evaluator.Check over cloned candidates
	searchAllocs, checkAllocs uint64
}

// probe measures pairs in the given order until budget runs out (at
// least minProbePairs).
func probe(ctx context.Context, pairs []pair, budget time.Duration) (probeStats, error) {
	const minProbePairs = 4
	var ps probeStats
	start := time.Now()
	for _, p := range pairs {
		if ps.pairs >= minProbePairs && time.Since(start) > budget {
			break
		}
		c, err := replayVerdict(ctx, p, true)
		if err != nil {
			return ps, err
		}
		t, err := litmus.Parse(p.src)
		if err != nil {
			return ps, err
		}
		m, err := cat.Builtin(p.model)
		if err != nil {
			return ps, err
		}
		prog, err := exec.Compile(t)
		if err != nil {
			return ps, err
		}
		a0 := mallocs()
		if _, err := search(ctx, prog); err != nil {
			return ps, err
		}
		ps.searchAllocs += mallocs() - a0

		clones, err := exec.Candidates(t)
		if err != nil {
			return ps, err
		}
		ev := evaluator(m)
		a0 = mallocs()
		t0 := time.Now()
		for _, x := range clones {
			if r := ev.Check(x.X); r.Err != nil {
				return ps, fmt.Errorf("check %s under %s: %w", t.Name, p.model, r.Err)
			}
		}
		ps.cloneCheckNS += int64(time.Since(t0))
		ps.checkAllocs += mallocs() - a0
		ps.pairs++
		ps.costs.add(c)
	}
	return ps, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Layer rows of the accounting, in pipeline order. Every nanosecond of a
// request's client round trip lands in exactly one row.
var layerRows = []string{"client", "fleet", "serve", "memo", "litmus", "exec", "cat", "sim"}

// accounting is the traced run's per-layer breakdown.
type accounting struct {
	requests, verdicts int
	rootNS             float64            // Σ client round trips, per verdict share
	rows               map[string]float64 // attributed wall time, ns
	upstream           int                // gateway → herdd exchanges
	cached             int
}

// account splits every traced request's client round trip into layer
// rows. Real spans nest client ⊃ fleet ⊃ fleet.upstream ⊃ serve; where
// several upstream exchanges of one request overlap (a batch fanned out to
// both nodes), each instant of the gateway span is shared equally among
// the exchanges active then. The herdd time is split into the replayed
// layer costs and serve's own remainder, in the same proportion as the
// exchange's share. compileShare maps a stack to herdd's compiles per
// simulated verdict on it (its program cache compiles each test once per
// node, not once per verdict).
func account(tr *tracer, compileShare map[int]float64) (accounting, error) {
	a := accounting{rows: map[string]float64{}}
	byID := map[uint64][]span{}
	for _, s := range tr.spans {
		byID[s.ID] = append(byID[s.ID], s)
	}
	reps := map[uint64]replay{}
	for _, r := range tr.replays {
		reps[r.ID] = r
	}
	for id, r := range reps {
		var root, gw *span
		var ups []span
		nodes := map[uint64]span{}
		for i, s := range byID[id] {
			switch s.Name {
			case spanClient:
				root = &byID[id][i]
			case spanGateway:
				gw = &byID[id][i]
			case spanUpstream:
				ups = append(ups, s)
			case spanNode:
				nodes[s.Parent] = s
			}
		}
		if root == nil || gw == nil {
			return a, fmt.Errorf("request %d: missing client or gateway span", id)
		}
		a.requests++
		a.verdicts += r.Verdicts
		a.cached += r.Cached
		a.upstream += len(ups)
		d := float64(root.dur())
		a.rootNS += d
		g := float64(overlap(*gw, *root))
		a.rows["client"] += d - g

		shares := shareOut(*gw, ups)
		covered := 0.0
		var herdWall, herdSum float64
		for k, u := range ups {
			covered += shares[k]
			h := 0.0
			if n, ok := nodes[u.Sub]; ok {
				h = float64(overlap(n, u))
			}
			w := 0.0
			if u.dur() > 0 {
				w = shares[k] / float64(u.dur())
			}
			a.rows["fleet"] += w * (float64(u.dur()) - h)
			herdWall += w * h
			herdSum += h
		}
		a.rows["fleet"] += g - covered

		c := r.layerCost
		c.Compile = int64(float64(c.Compile) * compileShare[r.Stack])
		rho := 0.0
		if herdSum > 0 {
			rho = herdWall / herdSum
		}
		below := float64(c.Parse + c.Key + c.Compile + c.Simulate)
		a.rows["serve"] += rho * (herdSum - below)
		a.rows["memo"] += rho * float64(c.Key)
		a.rows["litmus"] += rho * float64(c.Parse)
		a.rows["exec"] += rho * float64(c.Compile+c.Search)
		a.rows["cat"] += rho * float64(c.Check)
		a.rows["sim"] += rho * float64(c.Simulate-c.Search-c.Check)
	}
	if a.requests == 0 {
		return a, fmt.Errorf("no traced requests")
	}
	return a, nil
}

// overlap is the length of s clipped to within.
func overlap(s, within span) int64 {
	lo, hi := max(s.Start, within.Start), min(s.End, within.End)
	if hi < lo {
		return 0
	}
	return hi - lo
}

// shareOut splits parent's interval among the children active at each
// instant, equally; the returned shares sum to the covered part.
func shareOut(parent span, kids []span) []float64 {
	type edge struct {
		at  int64
		kid int
		in  bool
	}
	var edges []edge
	for i, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			edges = append(edges, edge{lo, i, true}, edge{hi, i, false})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	shares := make([]float64, len(kids))
	active := map[int]bool{}
	var last int64
	for _, e := range edges {
		if n := len(active); n > 0 && e.at > last {
			dt := float64(e.at-last) / float64(n)
			for k := range active {
				shares[k] += dt
			}
		}
		last = e.at
		if e.in {
			active[e.kid] = true
		} else {
			delete(active, e.kid)
		}
	}
	return shares
}
