package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/optim"
	"github.com/ftpim/ftpim/internal/tensor"
)

// One FT job is core.OneShotFT at Psa^T = 0.1 (Chen 1.75:9.04, the
// zero-value fault model) for ftEpochs epochs over the 1500 training
// images, batch 32, including its RecalibrateBN pass.
const (
	ftRate   = 0.1
	ftEpochs = 1
	minJobs  = 3
	// ftAccMargin is how far above chance (1/classes) the clean test
	// accuracy after an FT job must stay.
	ftAccMargin = 0.05
)

func ftConfig(seed uint64, tier string) core.Config {
	return core.Config{
		Epochs: ftEpochs, Batch: batch, LR: 0.04, Momentum: 0.9, WeightDecay: 5e-4,
		Aug: augment, Seed: seed, Numerics: tier,
	}
}

// ftJob restores the pretrained weights and times one FT job.
func ftJob(ctx context.Context, e *env, cfg core.Config) (float64, *core.Result, error) {
	if err := e.net.Restore(e.snap); err != nil {
		return 0, nil, err
	}
	runtime.GC() // the previous job's garbage is not this job's cost
	t0 := time.Now()
	r, err := core.OneShotFT(ctx, e.net, e.train, cfg, ftRate)
	return time.Since(t0).Seconds(), r, err
}

// useTier requests numerics tier n and returns the tier that is active
// (exact when n is fast on a host without AVX2/FMA) and a function
// restoring the previous request.
func useTier(n tensor.Numerics) (string, func()) {
	prev := tensor.SetNumerics(n)
	return tensor.ActiveNumerics().String(), func() { tensor.SetNumerics(prev) }
}

// runFTTrain measures FT jobs on the fast tier for o.seconds after one
// warm-up job (the first core.Train call in a process runs slower).
// Every job must keep a finite loss and end above chance.
func runFTTrain(ctx context.Context, e *env, o opts, res *result) (string, error) {
	tier, restore := useTier(tensor.NumericsFast)
	defer restore()
	if _, _, err := ftJob(ctx, e, ftConfig(o.seed, tier)); err != nil {
		return tier, err
	}
	var secs, raw []float64
	measured := 0.0
	for job := 0; measured < o.seconds || job < minJobs; job++ {
		clk := startClock()
		dt, r, err := ftJob(ctx, e, ftConfig(o.seed+uint64(job)+1, tier))
		if err != nil {
			return tier, err
		}
		raw = append(raw, dt)
		measured += dt
		secs = append(secs, clk.adjust(dt))
		acc := core.EvalClean(e.net, e.test, evalBatch)
		res.gate(finiteLosses(r) && acc >= 1.0/classes+ftAccMargin,
			"ft-train job %d: losses %v, clean accuracy %.4f (chance %.2f + margin %.2f)",
			job, losses(r), acc, 1.0/classes, ftAccMargin)
	}
	images := float64(e.train.N() * ftEpochs)
	p50 := median(secs)
	ms := scale(secs, 1000)
	tailMs, tailP := tail(ms)
	res.set("work_per_s", images/p50)
	res.set("latency_p50_ms", p50*1000)
	fmt.Printf("ft-train: %d jobs of %d epoch(s) x %d images (3x12x12, batch %d, Psa^T %.2g) on the %s tier: "+
		"train.images_per_s %.2f, job p50 %.1f ms, job p%g %.1f ms (steal-adjusted; raw p50 %.1f ms)\n",
		len(secs), ftEpochs, e.train.N(), batch, ftRate, tier, images/p50, p50*1000, tailP, tailMs, median(raw)*1000)
	return tier, nil
}

func losses(r *core.Result) []float64 {
	var ls []float64
	for _, h := range r.History {
		ls = append(ls, h.Loss)
	}
	return ls
}

func finiteLosses(r *core.Result) bool {
	for _, l := range losses(r) {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return false
		}
	}
	return len(r.History) > 0
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// layerGroup is a run of consecutive top-level layers the per-layer
// table reports together: the stem, one stage of residual blocks, or
// the pooling and classifier head.
type layerGroup struct {
	name   string
	layers []nn.Layer
}

func layerGroups(net *nn.Network) []layerGroup {
	var gs []layerGroup
	seenBlock := false
	for _, l := range net.Body.Layers {
		name := "head"
		if b, ok := l.(*nn.BasicBlock); ok {
			name, _, _ = strings.Cut(b.Conv1.Weight.Name, ".") // "stage1.block0.conv1.weight"
			seenBlock = true
		} else if !seenBlock {
			name = "stem"
		}
		if len(gs) == 0 || gs[len(gs)-1].name != name {
			gs = append(gs, layerGroup{name: name})
		}
		gs[len(gs)-1].layers = append(gs[len(gs)-1].layers, l)
	}
	return gs
}

// replayFT drives the training loop of core.Train and the
// RecalibrateBN pass of core.OneShotFT from public calls, with a span
// around each. Given the same network, data and config it must leave
// the weights bitwise equal to core.OneShotFT's.
func replayFT(ctx context.Context, tr *tracer, root int, net *nn.Network, ds *data.Dataset, cfg core.Config, rate float64) error {
	cfg.FaultRate = rate
	cfg = cfg.Normalize()
	rng := tensor.NewRNG(cfg.Seed)
	opt := optim.NewSGD(net.Params(), cfg.LR, cfg.Momentum, cfg.WeightDecay)
	loader := data.NewLoader(ds, cfg.Batch, cfg.Aug, true, rng.Stream("shuffle"))
	weights := core.WeightTensors(net)
	faultRNG := rng.Stream("train-faults")
	groups := layerGroups(net)
	var lossWS tensor.Workspace
	step := int64(0)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		opt.LR = cfg.Schedule.LR(epoch)
		s := tr.begin("fault.draw", root, int64(epoch))
		dm := cfg.Scenario.DrawMap(faultRNG.StreamN("epoch", epoch), weights, cfg.FaultRate)
		tr.end(s)
		s = tr.begin("data.epoch", root, int64(epoch))
		loader.Epoch()
		tr.end(s)
		for ; ; step++ {
			st := tr.begin("ft.step", root, step)
			s = tr.begin("data.next", st, step)
			x, y := loader.Next()
			tr.end(s)
			if x == nil {
				tr.end(st)
				break
			}
			s = tr.begin("fault.apply", st, step)
			lesion := dm.Apply(weights)
			tr.end(s)
			s = tr.begin("nn.zero_grad", st, step)
			net.ZeroGrad()
			tr.end(s)
			out := x
			for _, g := range groups {
				s = tr.begin("nn.fwd."+g.name, st, step)
				for _, l := range g.layers {
					out = l.Forward(out, true)
				}
				tr.end(s)
			}
			s = tr.begin("nn.loss", st, step)
			loss, dOut := nn.SoftmaxCrossEntropyWS(&lossWS, out, y)
			tr.end(s)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return fmt.Errorf("ft-train replay: loss %v at step %d", loss, step)
			}
			for gi := len(groups) - 1; gi >= 0; gi-- {
				g := groups[gi]
				s = tr.begin("nn.bwd."+g.name, st, step)
				for li := len(g.layers) - 1; li >= 0; li-- {
					dOut = g.layers[li].Backward(dOut)
				}
				tr.end(s)
			}
			s = tr.begin("fault.undo", st, step)
			lesion.Undo()
			tr.end(s)
			s = tr.begin("optim.step", st, step)
			opt.Step()
			tr.end(s)
			tr.end(st)
		}
	}
	s := tr.begin("core.recalib_bn", root, -1)
	err := core.RecalibrateBN(ctx, net, ds, cfg.Batch)
	tr.end(s)
	return err
}

// netState copies every parameter and batch-norm running statistic.
func netState(net *nn.Network) [][]float32 {
	var st [][]float32
	for _, p := range net.Params() {
		st = append(st, append([]float32(nil), p.W.Data()...))
	}
	for _, bn := range net.BatchNorms() {
		m, v := bn.Stats()
		st = append(st, append([]float32(nil), m.Data()...), append([]float32(nil), v.Data()...))
	}
	return st
}

func bitwiseEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// traceFT times pairs of an untraced FT job and its traced replay from
// the same pretrained weights and seed, at least once and until budget
// seconds have passed, gating that both end with bitwise-equal
// weights. It returns the median job times and the replays' root spans.
func traceFT(ctx context.Context, e *env, o opts, tr *tracer, budget float64, res *result) (untraced, traced float64, roots []int, err error) {
	tier, restore := useTier(tensor.NumericsFast)
	defer restore()
	if _, _, err := ftJob(ctx, e, ftConfig(o.seed, tier)); err != nil {
		return 0, 0, nil, err
	}
	var tu, tt []float64
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < budget; r++ {
		cfg := ftConfig(o.seed+uint64(r)+1, tier)
		dt, _, err := ftJob(ctx, e, cfg)
		if err != nil {
			return 0, 0, nil, err
		}
		tu = append(tu, dt)
		want := netState(e.net)
		if err := e.net.Restore(e.snap); err != nil {
			return 0, 0, nil, err
		}
		runtime.GC()
		root := tr.begin(ftTrain, -1, int64(r))
		t0 := time.Now()
		err = replayFT(ctx, tr, root, e.net, e.train, cfg, ftRate)
		tt = append(tt, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return 0, 0, nil, err
		}
		roots = append(roots, root)
		res.gate(bitwiseEqual(want, netState(e.net)),
			"ft-train replay %d: weights differ from core.OneShotFT on the %s tier", r, tier)
	}
	return median(tu), median(tt), roots, nil
}
