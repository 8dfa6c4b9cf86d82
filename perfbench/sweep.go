package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// One sweep is core.EvalDefectSweep over the 14 Table I testing rates
// with sweepRuns Monte-Carlo runs per nonzero rate, batch 128, on the
// exact tier the paper tables are pinned to. Rate 0 is one clean pass.
const (
	sweepRuns = 2
	minSweeps = 3
	// monoSlack is how much a band of rates may exceed the previous
	// band's mean accuracy (Monte-Carlo noise at sweepRuns runs).
	monoSlack = 0.03
	// collapseSlack is how close to chance the mean at Psa = 0.2 must be.
	collapseSlack = 0.1
)

var sweepRates = experiments.PaperTestRates

// sweepPasses is the number of test passes (runs) in one sweep.
func sweepPasses(rates []float64, runs int) int {
	n := 0
	for _, r := range rates {
		if r == 0 {
			n++
		} else {
			n += runs
		}
	}
	return n
}

func defectConfig(seed uint64, workers int) core.DefectEval {
	return core.DefectEval{Runs: sweepRuns, Batch: evalBatch, Workers: workers, Seed: seed, Numerics: "exact"}
}

// runSweep measures sweeps on the exact tier for o.seconds after one
// short warm-up sweep, gating every sweep's output.
func runSweep(ctx context.Context, e *env, o opts, res *result) (string, error) {
	tier, restore := useTier(tensor.NumericsExact)
	defer restore()
	clean := core.EvalClean(e.net, e.test, evalBatch)
	if _, err := core.EvalDefectSweep(ctx, e.net, e.test, sweepRates[:3], defectConfig(o.seed, o.workers)); err != nil {
		return tier, err
	}
	var secs, raw []float64
	measured := 0.0
	for k := 0; measured < o.seconds || k < minSweeps; k++ {
		cfg := defectConfig(o.seed*1000+uint64(k), o.workers)
		runtime.GC() // the previous sweep's clones are not this sweep's cost
		clk, t0 := startClock(), time.Now()
		sums, err := core.EvalDefectSweep(ctx, e.net, e.test, sweepRates, cfg)
		dt := time.Since(t0).Seconds()
		if err != nil {
			return tier, err
		}
		raw = append(raw, dt)
		measured += dt
		secs = append(secs, clk.adjust(dt))
		if err := checkSweep(ctx, e, cfg, sums, clean, res); err != nil {
			return tier, err
		}
	}
	passes := float64(sweepPasses(sweepRates, sweepRuns))
	p50 := median(secs)
	tailMs, tailP := tail(scale(secs, 1000))
	res.set("work_per_s", passes/p50)
	res.set("latency_p50_ms", p50*1000)
	fmt.Printf("defect-sweep: %d sweeps of %d rates x %d runs (%g passes over %d test images, batch %d, %d workers) on the %s tier: "+
		"sweep.runs_per_s %.3f, sweep p50 %.1f ms, sweep p%g %.1f ms (steal-adjusted; raw p50 %.1f ms)\n",
		len(secs), len(sweepRates), sweepRuns, passes, e.test.N(), evalBatch, o.workers, tier, passes/p50, p50*1000, tailP, tailMs, median(raw)*1000)
	return tier, nil
}

// checkSweep gates one sweep: the rate-0 mean equals core.EvalClean,
// a sampled rate re-evaluated serially through core.EvalDefectRuns
// summarizes bit-identically, and the accuracy collapses monotonically
// (band by band, within monoSlack) to chance by Psa = 0.2.
func checkSweep(ctx context.Context, e *env, cfg core.DefectEval, sums []metrics.Summary, clean float64, res *result) error {
	res.gate(len(sums) == len(sweepRates) && sums[0].Mean == clean,
		"defect-sweep seed %d: rate-0 mean is not core.EvalClean %v", cfg.Seed, clean)
	if len(sums) != len(sweepRates) {
		return nil
	}
	i := 1 + int(cfg.Seed%uint64(len(sweepRates)-1))
	serial := cfg
	serial.Seed = cfg.RateSeed(i)
	serial.Workers = 1
	accs, err := core.EvalDefectRuns(ctx, e.net, e.test, sweepRates[i], 0, cfg.Runs, serial)
	if err != nil {
		return err
	}
	res.gate(metrics.Summarize(accs) == sums[i],
		"defect-sweep seed %d: serial EvalDefectRuns at Psa %g gives %+v, the parallel sweep %+v",
		cfg.Seed, sweepRates[i], metrics.Summarize(accs), sums[i])
	bands := bandMeans(sums)
	last := sums[len(sums)-1].Mean
	res.gate(bands[1] <= bands[0]+monoSlack && bands[2] <= bands[1]+monoSlack && math.Abs(last-1.0/classes) <= collapseSlack,
		"defect-sweep seed %d: accuracy does not collapse monotonically to chance: band means %v, per rate %v",
		cfg.Seed, bands, means(sums))
	return nil
}

// bandMeans averages the sweep's means over three bands of rates: up
// to 0.003, up to 0.03, and above. With sweepRuns runs per rate a
// single rate's mean is too noisy to order against its neighbour's,
// but the bands are not.
func bandMeans(sums []metrics.Summary) [3]float64 {
	var sum [3]float64
	var n [3]int
	for i, s := range sums {
		b := 2
		if r := sweepRates[i]; r <= 0.003 {
			b = 0
		} else if r <= 0.03 {
			b = 1
		}
		sum[b] += s.Mean
		n[b]++
	}
	for b := range sum {
		sum[b] /= float64(n[b])
	}
	return sum
}

func means(sums []metrics.Summary) []float64 {
	out := make([]float64, len(sums))
	for i, s := range sums {
		out[i] = s.Mean
	}
	return out
}

// replaySweep mirrors core.EvalDefectSweep from public calls: one
// clone pool for the whole sweep, the rate-0 clean pass on the live
// network, and cfg.Workers goroutines that each check a clone out and
// run inject → evaluate → undo per run, with a span around each call.
// It returns the per-run accuracies of every rate.
func replaySweep(tr *tracer, root int, net *nn.Network, ds *data.Dataset, rates []float64, cfg core.DefectEval) [][]float64 {
	cfg = cfg.Normalize()
	pool := core.NewClonePool(net, cfg.Scenario)
	out := make([][]float64, len(rates))
	for i, psa := range rates {
		seed := cfg.RateSeed(i)
		if psa == 0 {
			s := tr.begin("metrics.evaluate", root, int64(i*1000))
			out[i] = []float64{metrics.Evaluate(net, ds, cfg.Batch)}
			tr.end(s)
			continue
		}
		accs := make([]float64, cfg.Runs)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for k := 0; k < min(cfg.Workers, cfg.Runs); k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ent := pool.Get()
				defer pool.Put(ent)
				inj := ent.InjectorFor(cfg.Scenario)
				for run := range jobs {
					req := int64(i*1000 + run)
					rs := tr.begin("sweep.run", root, req)
					s := tr.begin("fault.inject", rs, req)
					lesion := inj.InjectRun(seed, run, psa)
					tr.end(s)
					s = tr.begin("metrics.evaluate", rs, req)
					accs[run] = metrics.Evaluate(ent.Net, ds, cfg.Batch)
					tr.end(s)
					s = tr.begin("fault.undo", rs, req)
					lesion.Undo()
					tr.end(s)
					tr.end(rs)
				}
			}()
		}
		for run := 0; run < cfg.Runs; run++ {
			jobs <- run
		}
		close(jobs)
		wg.Wait()
		out[i] = accs
	}
	return out
}

// sweepTrace is what one traced defect-sweep repetition measured.
type sweepTrace struct {
	untraced, traced float64 // wall seconds of EvalDefectSweep and of the replay
	parallelEff      float64
	root             int
}

// traceSweep times an untraced core.EvalDefectSweep and its traced
// replay with the same seed, gates that every replayed run equals
// core.EvalDefectRuns, and derives the parallel efficiency from a
// serial EvalDefectRuns of one sampled rate.
func traceSweep(ctx context.Context, e *env, o opts, tr *tracer, rates []float64, rep int, res *result) (sweepTrace, error) {
	_, restore := useTier(tensor.NumericsExact)
	defer restore()
	cfg := defectConfig(o.seed*1000+uint64(rep), o.workers)
	var st sweepTrace
	if rep == 0 { // warm-up: the process's first sweep runs on cold caches
		if _, err := core.EvalDefectSweep(ctx, e.net, e.test, rates[:min(3, len(rates))], cfg); err != nil {
			return st, err
		}
	}
	runtime.GC()
	t0 := time.Now()
	sums, err := core.EvalDefectSweep(ctx, e.net, e.test, rates, cfg)
	st.untraced = time.Since(t0).Seconds()
	if err != nil {
		return st, err
	}
	runtime.GC()
	st.root = tr.begin(defectSweep, -1, int64(rep))
	t0 = time.Now()
	accs := replaySweep(tr, st.root, e.net, e.test, rates, cfg)
	st.traced = time.Since(t0).Seconds()
	tr.end(st.root)

	for i, psa := range rates {
		c := cfg
		c.Seed = cfg.RateSeed(i)
		want, err := core.EvalDefectRuns(ctx, e.net, e.test, psa, 0, cfg.Runs, c)
		if err != nil {
			return st, err
		}
		if psa == 0 {
			want = want[:1] // one clean pass stands for every run
		}
		res.gate(equalFloats(want, accs[i]) && metrics.Summarize(accs[i]) == sums[i],
			"defect-sweep replay at Psa %g: runs %v, EvalDefectRuns %v", psa, accs[i], want)
	}
	j := len(rates) - 1
	c := cfg
	c.Seed = cfg.RateSeed(j)
	c.Workers = 1
	t0 = time.Now()
	serial, err := core.EvalDefectRuns(ctx, e.net, e.test, rates[j], 0, cfg.Runs, c)
	perRun := time.Since(t0).Seconds() / float64(cfg.Runs)
	if err != nil {
		return st, err
	}
	res.gate(equalFloats(serial, accs[j]), "defect-sweep: serial EvalDefectRuns differs from the replay at Psa %g", rates[j])
	st.parallelEff = perRun * float64(sweepPasses(rates, cfg.Runs)) / (st.untraced * float64(o.workers))
	return st, nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
