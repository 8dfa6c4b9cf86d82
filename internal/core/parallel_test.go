// Determinism-equivalence suite for the parallel defect-evaluation
// engine. Lives in an external test package so it can pull preset
// definitions from internal/experiments without an import cycle.
package core_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/experiments"
	"github.com/ftpim/ftpim/internal/metrics"
	"github.com/ftpim/ftpim/internal/models"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// ctxbg is the context for tests that never cancel.
var ctxbg = context.Background()

// evalD unwraps EvalDefect under a background context.
func evalD(t *testing.T, net *nn.Network, ds *data.Dataset, psa float64, cfg core.DefectEval) metrics.Summary {
	t.Helper()
	s, err := core.EvalDefect(ctxbg, net, ds, psa, cfg)
	if err != nil {
		t.Fatalf("EvalDefect: %v", err)
	}
	return s
}

// presetFixture builds a preset-scale model and test set without
// training: deterministic He-initialized weights are exactly as
// sensitive to scheduling bugs as trained ones, and keep the suite
// fast enough for -race CI.
func presetFixture(t *testing.T, preset string) (*nn.Network, *data.Dataset) {
	t.Helper()
	s := experiments.ScaleFor(preset)
	net := models.BuildResNet(models.ResNetConfig{
		Depth: s.DepthC10, Classes: s.C10.Classes, InChannels: 3,
		WidthMult: s.Width, Seed: s.Seed,
	})
	_, test := data.Generate(s.C10)
	return net, test
}

// evalR unwraps EvalDefectRuns under a background context.
func evalR(t *testing.T, net *nn.Network, ds *data.Dataset, psa float64, start, end int, cfg core.DefectEval) []float64 {
	t.Helper()
	accs, err := core.EvalDefectRuns(ctxbg, net, ds, psa, start, end, cfg)
	if err != nil {
		t.Fatalf("EvalDefectRuns: %v", err)
	}
	if len(accs) != end-start {
		t.Fatalf("EvalDefectRuns [%d,%d): %d accuracies", start, end, len(accs))
	}
	return accs
}

// TestEvalDefectDeterminism checks that EvalDefect produces exactly
// equal Summary values (bitwise float equality) at every worker count,
// on both the smoke and quick presets, and that EvalDefectRuns over a
// split of the run range folds back to the same Summary.
func TestEvalDefectDeterminism(t *testing.T) {
	for _, preset := range []string{"smoke", "quick"} {
		t.Run(preset, func(t *testing.T) {
			net, test := presetFixture(t, preset)
			before := net.Snapshot()
			base := core.DefectEval{Runs: 6, Batch: 32, Seed: 42, Workers: 1}
			for _, psa := range []float64{0.005, 0.05, 0.2} {
				want := evalD(t, net, test, psa, base)
				for _, w := range []int{2, 3, 8} {
					cfg := base
					cfg.Workers = w
					got := evalD(t, net, test, psa, cfg)
					if got != want {
						t.Fatalf("psa=%g workers=%d: %+v != serial %+v", psa, w, got, want)
					}
				}
				for _, w := range []int{1, 3} {
					cfg := base
					cfg.Workers = w
					const k = 2
					accs := append(evalR(t, net, test, psa, 0, k, cfg), evalR(t, net, test, psa, k, cfg.Runs, cfg)...)
					if got := metrics.Summarize(accs); got != want {
						t.Fatalf("psa=%g workers=%d: EvalDefectRuns folds to %+v, EvalDefect %+v", psa, w, got, want)
					}
				}
			}
			clean := core.EvalClean(net, test, base.Batch)
			for _, w := range []int{1, 3} {
				cfg := base
				cfg.Workers = w
				for i, acc := range evalR(t, net, test, 0, 1, 4, cfg) {
					if acc != clean {
						t.Fatalf("psa=0 workers=%d: slot %d = %v, want clean accuracy %v", w, i, acc, clean)
					}
				}
			}
			if string(net.Snapshot()) != string(before) {
				t.Fatal("EvalDefect/EvalDefectRuns mutated the live network")
			}
		})
	}
}

// TestEvalDefectSweepDeterminism checks the whole Table-I sweep is
// bit-identical between the serial path and an 8-worker pool, and that
// the live network's weights are untouched afterwards.
func TestEvalDefectSweepDeterminism(t *testing.T) {
	for _, preset := range []string{"smoke", "quick"} {
		t.Run(preset, func(t *testing.T) {
			s := experiments.ScaleFor(preset)
			net, test := presetFixture(t, preset)
			before := net.Snapshot()

			serial := core.DefectEval{Runs: s.DefectRuns, Batch: 32, Seed: s.Seed * 31, Workers: 1}
			parallel := serial
			parallel.Workers = 8

			want, err := core.EvalDefectSweep(ctxbg, net, test, s.TestRates, serial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.EvalDefectSweep(ctxbg, net, test, s.TestRates, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sweep differs:\nserial   %+v\nparallel %+v", want, got)
			}
			after := net.Snapshot()
			if len(before) != len(after) {
				t.Fatal("snapshot size changed")
			}
			for i := range before {
				if before[i] != after[i] {
					t.Fatal("EvalDefectSweep mutated the live network")
				}
			}
		})
	}
}

// TestStabilityDeterminism checks Stability reports match exactly
// between worker counts on both presets.
func TestStabilityDeterminism(t *testing.T) {
	for _, preset := range []string{"smoke", "quick"} {
		t.Run(preset, func(t *testing.T) {
			s := experiments.ScaleFor(preset)
			net, test := presetFixture(t, preset)
			accPre := core.EvalClean(net, test, 32)

			serial := core.DefectEval{Runs: 5, Batch: 32, Seed: 7, Workers: 1}
			parallel := serial
			parallel.Workers = 8
			want, err := core.Stability(ctxbg, net, test, accPre, s.SSRates, serial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Stability(ctxbg, net, test, accPre, s.SSRates, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stability differs:\nserial   %+v\nparallel %+v", want, got)
			}
		})
	}
}

// TestEvalDefectWorkersDefault checks Workers: 0 (all cores) matches
// the serial reference too — the default must not change results.
func TestEvalDefectWorkersDefault(t *testing.T) {
	net, test := presetFixture(t, "smoke")
	serial := evalD(t, net, test, 0.05, core.DefectEval{Runs: 4, Batch: 16, Seed: 9, Workers: 1})
	auto := evalD(t, net, test, 0.05, core.DefectEval{Runs: 4, Batch: 16, Seed: 9})
	if serial != auto {
		t.Fatalf("Workers=0 (%+v) differs from serial (%+v)", auto, serial)
	}
}

// TestEvalDefectKernelWorkersInvariance drives the *kernel*-level knob
// together with the Monte-Carlo pool: the sharded matmul/conv paths
// inside Evaluate must not perturb results either.
func TestEvalDefectKernelWorkersInvariance(t *testing.T) {
	net, test := presetFixture(t, "smoke")
	cfg := core.DefectEval{Runs: 4, Batch: 16, Seed: 3, Workers: 2}

	old := tensor.SetWorkers(1)
	want := evalD(t, net, test, 0.02, cfg)
	tensor.SetWorkers(8)
	got := evalD(t, net, test, 0.02, cfg)
	tensor.SetWorkers(old)
	if got != want {
		t.Fatalf("kernel workers changed results: %+v != %+v", got, want)
	}
}
