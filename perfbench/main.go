// Command perfbench is the repository benchmark. It builds its inputs
// from a seed, runs one named workload against the program's public
// API, checks the outputs, and prints the end-to-end metrics; with
// --trace 1 it instead replays every workload from public calls with
// spans around each module and prints the per-layer table. The last
// line of standard output is always one JSON result object.
//
//	bash perfbench/run.sh --workload ft-train --seed 1 --seconds 12 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// what each per-layer metric is expected to move.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"github.com/ftpim/ftpim/internal/tensor"
)

// Workload names, as listed in BENCHMARK.json.
const (
	ftTrain     = "ft-train"
	defectSweep = "defect-sweep"
	serveInt8   = "serve-int8"
)

var workloads = []string{ftTrain, defectSweep, serveInt8}

//go:embed config.json
var configJSON []byte

// config is config.json: the fixed offered rates of serve-int8 and the
// p99 latency limit a rate must meet to count towards serve.max_ok_rps.
type config struct {
	RatesRPS       []float64 `json:"serve_rates_rps"`
	LatencyLimitMs float64   `json:"serve_latency_limit_ms"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return nil, fmt.Errorf("config.json: %w", err)
	}
	if len(c.RatesRPS) == 0 || c.LatencyLimitMs <= 0 {
		return nil, errors.New("config.json: serve_rates_rps and serve_latency_limit_ms must be set")
	}
	return &c, nil
}

// middleRate is the fixed rate serve.p50_ms and serve.p99_ms are
// measured at.
func (c *config) middleRate() (int, float64) {
	i := len(c.RatesRPS) / 2
	return i, c.RatesRPS[i]
}

// benchmarkFile is BENCHMARK.json, read from the repository root the
// benchmark runs in. It is the one table of metric names, units and
// directions; a per-layer metric's layer is its name up to the first dot.
const benchmarkFile = "BENCHMARK.json"

type metric struct{ Name, Unit, Better string }

type benchmark struct {
	Workloads []struct{ Name string }
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// result collects one run's gates and metrics. Every gate is one
// attempted operation; a failed gate is a failed operation and makes
// the run incorrect.
type result struct {
	attempted, failed int
	metrics           map[string]float64
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// gate records one checked operation. The first few failures are
// described on standard error.
func (r *result) gate(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the metrics as a table and then the JSON result line.
// It fails if the run did not produce exactly the metrics listed, which
// are BENCHMARK.json's end_to_end or per_layer list.
func (r *result) finish(listed []metric) (correct bool, err error) {
	out := map[string]metricOut{}
	for _, m := range listed {
		v, ok := r.metrics[m.Name]
		if !ok {
			return false, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = metricOut{v, m.Unit}
	}
	if len(out) != len(r.metrics) {
		return false, fmt.Errorf("run measured %d metrics, %s lists %d", len(r.metrics), benchmarkFile, len(out))
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.4f %s\n", n, out[n].Value, out[n].Unit)
	}
	correct = r.failed == 0
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return correct, nil
}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch directory for the exported model and traces
	workers  int    // GOMAXPROCS, tensor.SetWorkers and DefectEval.Workers
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: ft-train, defect-sweep or serve-int8")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 15, "measured time of the run")
	trace := fs.Int("trace", 0, "1 = traced replay with the per-layer table, 0 = end-to-end metrics")
	dir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the exported model and trace files")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if !contains(workloads, *workload) {
		return 2, fmt.Errorf("unknown --workload %q (want one of %v)", *workload, workloads)
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return 2, errors.New("--seconds must be positive")
	}
	cfg, err := loadConfig()
	if err != nil {
		return 1, err
	}
	bench, err := loadBenchmark(benchmarkFile)
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return 1, err
	}
	o := opts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}
	o.workers = min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(o.workers)
	tensor.SetWorkers(o.workers)

	ctx := context.Background()
	res := newResult()
	listed := bench.EndToEnd
	if o.trace {
		listed = bench.PerLayer
		err = runTraced(ctx, o, cfg, res)
	} else {
		err = runWorkload(ctx, o, cfg, res)
	}
	if err != nil {
		return 1, err
	}
	correct, err := res.finish(listed)
	if err != nil {
		return 1, err
	}
	if !correct {
		return 1, fmt.Errorf("%d of %d checked operations failed", res.failed, res.attempted)
	}
	return 0, nil
}

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median (with two, their mean). Each set-up pretrains for about
// 8 s on a 2-vCPU host, so a third would add a fifth to every run.
const setupRepeats = 2

// runWorkload sets up o.workload setupRepeats times, reporting the
// median as setup_s, then measures it for o.seconds untraced.
func runWorkload(ctx context.Context, o opts, cfg *config, res *result) error {
	e, setupS, same, err := setupRepeated(ctx, o.seed, o.workload == serveInt8, o.dir, setupRepeats)
	if err != nil {
		return err
	}
	defer e.close()
	res.gate(same, "set-up is not deterministic: repeated set-ups gave different model bytes")
	clk := startClock()
	tiers := map[string]string{}
	switch o.workload {
	case ftTrain:
		tiers[ftTrain], err = runFTTrain(ctx, e, o, res)
	case defectSweep:
		tiers[defectSweep], err = runSweep(ctx, e, o, res)
	case serveInt8:
		tiers[serveInt8], err = runServe(e, o, cfg, res)
	}
	if err != nil {
		return err
	}
	res.set("setup_s", setupS)
	res.set("max_rss_mb", maxRSSMB())
	printHost(fingerprint(o.workers, tiers))
	fmt.Printf("workload %s seed %d: setup %.3fs (median of %d, steal-adjusted), steal %.1f%% of runnable CPU during measurement, fail_ratio %d/%d\n",
		o.workload, o.seed, setupS, setupRepeats, 100*clk.share(), res.failed, res.attempted)
	return nil
}

func printHost(h host) {
	b, _ := json.Marshal(h)
	fmt.Println("host", string(b))
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
