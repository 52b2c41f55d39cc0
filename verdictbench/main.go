// Command verdictbench is herdcats' end-to-end verdict benchmark. It
// starts the serving stack in-process on loopback — a client, herd-gw
// (fleet.Gateway) and two herdd nodes (serve.Server) — drives one
// workload through it as a closed loop of at most nproc clients, checks
// every verdict against a reference the serving path did not compute,
// and prints every metric by name with its unit. The last line of
// standard output is the result as one JSON object.
//
//	verdictbench --workload corpus-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run is split in two halves: an untraced half (the
// end-to-end figures) and a traced half that records spans around every
// hop and replays each verdict's work layer by layer, then reports
// per-layer metrics and checks that the exclusive layer rows sum to the
// untraced end-to-end time. README.md documents workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"herdcats/internal/cat"
)

// corpusDir is the litmus corpus, relative to the repository root the
// bench runs from.
var corpusDir = "testdata/litmus"

// quietShare is the share of a run's windows verdicts_per_s and
// cpu_ms_per_verdict are computed over: those with the least CPU per
// verdict (see quiet). Latency percentiles use every sample.
const quietShare = 0.5

// Layer-sum check tolerances (see README.md): the traced per-verdict time
// may differ from the untraced one by sumTolerance of it, and no layer row
// may go below -negTolerance of the total.
const (
	sumTolerance = 0.25
	negTolerance = 0.05
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "corpus-cold, corpus-warm or coherence-batch")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	w, err := buildWorkload(*name, *seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	clients := min(2, runtime.NumCPU())
	refs, err := buildOracle(ctx, w.distinct(), clients)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	dv := &driver{w: w, refs: refs, clients: clients, rng: rand.New(rand.NewPCG(*seed, 0x6f72646572))} // "order"
	d := time.Duration(*seconds * float64(time.Second))

	rec := record{
		Record: "verdictbench/v1", Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clients, Nodes: nodesPerStack, Pairs: len(refs), Samples: map[string]int{},
	}
	for _, r := range refs {
		if r.byCat {
			rec.CatalogueChecked++
		}
	}

	var out output
	if *trace == 0 {
		// Three warm rounds give setup_s (which includes the fill) a
		// median of three.
		res := &result{}
		if err := dv.segment(ctx, d, 3, res); err != nil {
			return err
		}
		out = endToEnd(res, &rec)
	} else {
		out, err = traced(ctx, dv, d, &rec)
		if err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(out.Metrics) {
		m := out.Metrics[k]
		fmt.Printf("%-36s %14.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("%-36s %14.4f frac\n", "failed_frac", float64(out.Failed)/float64(max(out.Attempted, 1)))
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n", b)
	b, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// buildWorkload makes a workload's inputs from its seed.
func buildWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "corpus-cold", "corpus-warm":
		tests, err := loadCorpus(corpusDir)
		if err != nil {
			return nil, err
		}
		for _, src := range tests {
			for _, m := range cat.BuiltinNames() {
				w.items = append(w.items, item{pairs: []pair{{src: src, model: m}}})
			}
		}
		w.warm = name == "corpus-warm"
	case "coherence-batch":
		tests := genCoherence(seed, cohPerShape)
		for _, m := range cohModels {
			it := item{batch: true}
			for _, src := range tests {
				it.pairs = append(it.pairs, pair{src: src, model: m})
			}
			w.items = append(w.items, it)
		}
		w.batchSize = cohBatch
	default:
		return nil, fmt.Errorf("unknown workload %q (want corpus-cold, corpus-warm or coherence-batch)", name)
	}
	return w, nil
}

// A coherence pass holds cohPerShape tests of each of the 8 generator
// shapes under each model, dealt into batches of cohBatch tests.
const (
	cohPerShape = 4
	cohBatch    = 16
)

func loadCorpus(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.litmus"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no litmus tests under %s (run from the repository root)", dir)
	}
	sort.Strings(files)
	var out []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	return out, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run's metadata, printed before the result line.
type record struct {
	Record           string         `json:"record"`
	Workload         string         `json:"workload"`
	Seed             uint64         `json:"seed"`
	Seconds          float64        `json:"seconds"`
	Trace            int            `json:"trace"`
	Commit           string         `json:"commit"`
	Go               string         `json:"go"`
	NProc            int            `json:"nproc"`
	GOMAXPROCS       int            `json:"gomaxprocs"`
	Clients          int            `json:"clients"`
	Nodes            int            `json:"nodes"`
	Pairs            int            `json:"pairs"`
	CatalogueChecked int            `json:"catalogue_checked"`
	TailPercentile   float64        `json:"latency_tail_percentile,omitempty"`
	QuietShare       float64        `json:"quiet_share,omitempty"`
	Samples          map[string]int `json:"samples"`
	Failures         []string       `json:"failures,omitempty"`
	Layers           *layerRecord   `json:"layers,omitempty"`
}

// layerRecord is the traced run's accounting in the record.
type layerRecord struct {
	Dominant      string             `json:"dominant"`
	Shares        map[string]float64 `json:"shares"`
	SumTolerance  float64            `json:"sum_tolerance"`
	NegTolerance  float64            `json:"negative_row_tolerance"`
	UntracedUS    float64            `json:"untraced_us_per_verdict"`
	TracedUS      float64            `json:"traced_us_per_verdict"`
	RowsUS        float64            `json:"rows_us_per_verdict"`
	CheckPassed   bool               `json:"check_passed"`
	CheckProblems []string           `json:"check_problems,omitempty"`
	SpansFile     string             `json:"spans_file,omitempty"`
}

// endToEnd turns a measured segment into the end-to-end metrics.
func endToEnd(res *result, rec *record) output {
	good := res.attempted - res.failed
	rate, cpu, nq := quiet(res, quietShare)
	p := tailPercentile(len(res.latMS))
	rec.TailPercentile = p
	rec.QuietShare = quietShare
	rec.Samples["latency"] = len(res.latMS)
	rec.Samples["quiet_windows"] = nq
	rec.Samples["setup"] = len(res.setupS)
	rec.Samples["verdicts"] = good
	rec.Samples["stacks"] = len(res.stacks)
	rec.Samples["windows"] = len(res.windows)
	rec.Failures = res.errs
	per := float64(max(good, 1))
	return output{
		Correct:   res.failed == 0 && good > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics: map[string]metric{
			"verdicts_per_s":     {rate, "1/s"},
			"latency_p50_ms":     {percentile(res.latMS, 50), "ms"},
			"latency_tail_ms":    {percentile(res.latMS, p), "ms"},
			"cpu_ms_per_verdict": {cpu, "ms"},
			"allocs_per_verdict": {float64(res.allocs) / per, "count"},
			"peak_rss_mb":        {res.peakRSS / (1 << 20), "MB"},
			"setup_s":            {percentile(res.setupS, 50), "s"},
		},
	}
}

// tailPercentile is the highest of p90, p99, p99.9 and p99.99 that still
// has at least ten samples beyond it (p50 below 20 samples).
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile[T float32 | float64](xs []T, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(float64(len(s))*p/100+0.5) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout)"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
