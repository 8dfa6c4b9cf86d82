package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/ftpim/ftpim/internal/core"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/ftpm"
	"github.com/ftpim/ftpim/internal/models"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/tensor"
)

// The stated input size of every workload: the repro preset's
// CIFAR-10-like synthetic task (10 classes, 150 train and 40 test
// images per class, 3×12×12) and ResNet-20 at width ×0.25.
const (
	classes   = 10
	batch     = 32  // training and calibration batch
	evalBatch = 128 // defect-sweep and clean-accuracy batch
	calibN    = 256 // training images used to calibrate int8 scales
	// pretrainEpochs is the set-up's exact-tier pretrain: long enough
	// that every seed's model is well above chance, so the accuracy
	// gates have something to lose and no seed fails them. An FT job
	// costs a pretrained model about a third of its clean accuracy; at
	// four epochs the weakest of two dozen probed seeds pretrained to 46%
	// and its FT jobs ended at 28% or better, while at two one seed
	// pretrained to 21% and an FT job ended at 13%, under the ft-train
	// gate's chance + 5%.
	pretrainEpochs = 4
)

func synthConfig(seed uint64) data.SynthConfig {
	return data.SynthConfig{
		Classes: classes, TrainPer: 150, TestPer: 40,
		Channels: 3, Size: 12, Basis: 26, CoefNoise: 0.25,
		NoiseStd: 0.45, ShiftMax: 2, JitterStd: 0.15, Seed: seed,
	}
}

var augment = data.Augment{Flip: true, ShiftMax: 1}

// env is what set-up hands a workload: the seeded dataset, the
// pretrained float model and, for serving, the exported int8 model
// loaded back through mmap.
type env struct {
	train, test *data.Dataset
	net         *nn.Network
	snap        []byte // net's pretrained state, restored before each FT job
	model       *ftpm.Model
	modelPath   string
}

func (e *env) close() {
	if e.model != nil {
		e.model.Close()
	}
}

// setup builds one env from seed: data.Generate, the ResNet build and
// a short exact-tier pretrain, so the model bytes depend on the
// seed alone; with export set it also quantizes the model, saves it as
// FTPM and loads it back zero-copy.
func setup(ctx context.Context, seed uint64, export bool, dir string) (*env, error) {
	prev := tensor.SetNumerics(tensor.NumericsExact)
	defer tensor.SetNumerics(prev)

	train, test := data.Generate(synthConfig(seed))
	mc := models.ResNet20(classes).Scaled(0.25)
	mc.Seed = seed
	net := models.BuildResNet(mc)
	_, err := core.Train(ctx, net, train, core.Config{
		Epochs: pretrainEpochs, Batch: batch, LR: 0.08, Momentum: 0.9, WeightDecay: 5e-4,
		Aug: augment, Seed: seed, Numerics: "exact",
	})
	if err != nil {
		return nil, fmt.Errorf("pretrain: %w", err)
	}
	e := &env{train: train, test: test, net: net, snap: net.Snapshot()}
	if !export {
		return e, nil
	}
	c, h, w := train.Dims()
	stride := c * h * w
	var calib []*tensor.Tensor
	for at := 0; at < calibN; at += batch {
		var t tensor.Tensor
		t.SetView(train.Images.Data()[at*stride:(at+batch)*stride], batch, c, h, w)
		calib = append(calib, &t)
	}
	q, err := nn.QuantizeNetwork(net, calib)
	if err != nil {
		return nil, err
	}
	e.modelPath = filepath.Join(dir, fmt.Sprintf("model-seed%d.ftpm", seed))
	if err := ftpm.Save(e.modelPath, q, ftpm.Meta{Model: "resnet20x0.25", Dataset: "synth-c10", Classes: classes}); err != nil {
		return nil, err
	}
	if e.model, err = ftpm.Load(e.modelPath); err != nil {
		return nil, err
	}
	return e, nil
}

// setupRepeated runs set-up reps times and returns the last env, the
// median steal-adjusted set-up time, and whether every repetition
// produced the same model bytes (the determinism the workloads rely on).
func setupRepeated(ctx context.Context, seed uint64, export bool, dir string, reps int) (*env, float64, bool, error) {
	var last *env
	var secs []float64
	same := true
	var modelBytes []byte
	for i := 0; i < reps; i++ {
		runtime.GC()
		clk, t0 := startClock(), time.Now()
		e, err := setup(ctx, seed, export, dir)
		if err != nil {
			return nil, 0, false, err
		}
		secs = append(secs, clk.adjust(time.Since(t0).Seconds()))
		var mb []byte
		if export {
			if mb, err = os.ReadFile(e.modelPath); err != nil {
				return nil, 0, false, err
			}
		}
		if last != nil {
			same = same && bytes.Equal(last.snap, e.snap) && bytes.Equal(modelBytes, mb)
			last.close()
		}
		last, modelBytes = e, mb
	}
	return last, median(secs), same, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
