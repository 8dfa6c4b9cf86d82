package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"github.com/ftpim/ftpim/internal/ftpm"
	"github.com/ftpim/ftpim/internal/tensor"
)

// shortSweepRates is the rate subset the traced run replays when
// defect-sweep is not the workload it was asked for: enough to fill
// every per-layer metric at a quarter of the cost.
var shortSweepRates = []float64{0, 0.01, 0.1, 0.2}

// shortSeconds is the measured time of a replay of a workload the
// traced run was not asked for.
const shortSeconds = 1.5

// runTraced sets up once and replays all three workloads from public
// calls with spans, so every per-layer metric is measured in every
// traced run. The workload o.workload is replayed for o.seconds; the
// others once, at reduced size. Single-layer kernel timings and the
// FTPM load time complete the table.
func runTraced(ctx context.Context, o opts, cfg *config, res *result) error {
	clk := startClock()
	e, _, _, err := setupRepeated(ctx, o.seed, true, o.dir, 1)
	if err != nil {
		return err
	}
	defer e.close()
	tr := newTracer()

	var loads []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		m, err := ftpm.Load(e.modelPath)
		if err != nil {
			return err
		}
		loads = append(loads, msSince(t0))
		m.Close()
	}
	res.set("ftpm.load_ms", median(loads))
	floatKernels(e.net, batchView(e, batch, true), res)

	budget := func(w string) float64 {
		if w == o.workload {
			return o.seconds
		}
		return 0
	}
	overhead := func(w string, untraced, traced float64) {
		res.set("trace.overhead_pct."+w, 100*(traced/untraced-1))
	}

	ftU, ftT, ftRoots, err := traceFT(ctx, e, o, tr, budget(ftTrain), res)
	if err != nil {
		return err
	}
	overhead(ftTrain, ftU, ftT)

	rates := shortSweepRates
	if o.workload == defectSweep {
		rates = sweepRates
	}
	var swU, swT, effs []float64
	var swRoots []int
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start).Seconds() < budget(defectSweep); rep++ {
		st, err := traceSweep(ctx, e, o, tr, rates, rep, res)
		if err != nil {
			return err
		}
		swU, swT, effs = append(swU, st.untraced), append(swT, st.traced), append(effs, st.parallelEff)
		swRoots = append(swRoots, st.root)
	}
	overhead(defectSweep, median(swU), median(swT))
	res.set("core.parallel_eff", median(effs))

	sv, err := prepareServed(e)
	if err != nil {
		return err
	}
	srvT, err := traceServe(e, o, cfg, tr, sv, max(shortSeconds, budget(serveInt8)), res)
	if err != nil {
		return err
	}
	overhead(serveInt8, srvT.untraced.p50, srvT.traced.p50)
	meanBatch := mean(srvT.sink.batchN)
	res.set("serve.batch_size_mean", meanBatch)
	res.set("serve.batch_ms_p50", median(srvT.sink.batchMs))
	res.set("serve.handler_ms_p50", median(srvT.sink.handlerMs))
	res.set("serve.rejected_429", float64(srvT.traced.rejected))
	res.set("load.late_ms_max", srvT.traced.lateMaxMs)
	int8Kernels(e.model.Net, batchView(e, max(1, int(math.Round(meanBatch))), false), res)

	spans := tr.snapshot()
	agg := aggregate(spans)
	for _, g := range []string{"stem", "stage1", "stage2", "stage3", "head"} {
		res.set("nn.fwd_ms."+g, agg["nn.fwd."+g].MeanMs())
		res.set("nn.bwd_ms."+g, agg["nn.bwd."+g].MeanMs())
	}
	for _, n := range []string{"fault.draw", "fault.apply", "fault.inject", "fault.undo",
		"data.next", "optim.step", "core.recalib_bn", "metrics.evaluate"} {
		res.set(n+"_ms", agg[n].MeanMs())
	}
	for w, roots := range map[string][]int{ftTrain: ftRoots, defectSweep: swRoots, serveInt8: srvT.roots} {
		var pct []float64
		for _, r := range roots {
			pct = append(pct, 100*float64(uncovered(spans, r))/float64(spans[r].End-spans[r].Start))
		}
		res.set("trace.uncovered_pct."+w, median(pct))
	}
	res.set("host.steal_pct", 100*clk.share())

	printTables(spans)
	h := fingerprint(o.workers, map[string]string{
		ftTrain: fastTierName(), defectSweep: "exact", serveInt8: "int8 (float stages exact)",
	})
	printHost(h)
	path := filepath.Join(o.dir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path, map[string]any{"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "host": h}); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	return nil
}

// fastTierName is the tier ft-train runs on: fast where supported.
func fastTierName() string {
	name, restore := useTier(tensor.NumericsFast)
	restore()
	return name
}

// batchView returns the first n training (or test) images as a batch.
func batchView(e *env, n int, train bool) *tensor.Tensor {
	ds := e.test
	if train {
		ds = e.train
	}
	c, h, w := ds.Dims()
	var x tensor.Tensor
	x.SetView(ds.Images.Data()[:n*c*h*w], n, c, h, w)
	return &x
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// printTables prints one self-time table per replayed workload: every
// span name under the workload's root spans, with its call count,
// summed and mean self time, and share of the workload's wall time.
func printTables(spans []span) {
	self := selfTimes(spans)
	type row struct {
		name  string
		calls int
		self  int64
	}
	rows := map[string]map[string]*row{}
	wall := map[string]int64{}
	for i, s := range spans {
		r := i
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		w := spans[r].Name
		if rows[w] == nil {
			rows[w] = map[string]*row{}
		}
		if i == r {
			wall[w] += s.End - s.Start
		}
		if rows[w][s.Name] == nil {
			rows[w][s.Name] = &row{name: s.Name}
		}
		rows[w][s.Name].calls++
		rows[w][s.Name].self += self[i]
	}
	for _, w := range workloads {
		var rs []*row
		for _, r := range rows[w] {
			rs = append(rs, r)
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].self > rs[j].self })
		fmt.Printf("\nper-layer self time, %s replay (wall %.1f ms; concurrent spans can share past 100%%):\n", w, float64(wall[w])/1e6)
		fmt.Printf("  %-22s %8s %12s %10s %7s\n", "span", "calls", "self ms", "mean ms", "share")
		for _, r := range rs {
			fmt.Printf("  %-22s %8d %12.2f %10.4f %6.2f%%\n", r.name, r.calls, float64(r.self)/1e6,
				float64(r.self)/1e6/float64(r.calls), 100*float64(r.self)/float64(wall[w]))
		}
	}
	fmt.Println()
}
