package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/obs"
	"github.com/ftpim/ftpim/internal/optim"
	"github.com/ftpim/ftpim/internal/prune"
	"github.com/ftpim/ftpim/internal/tensor"
)

// Checkpoint section names. "meta" carries the gob-encoded trainMeta;
// the rest carry the state blobs it describes.
const (
	secMeta = "meta" // trainMeta (gob)
	secNet  = "net"  // nn.Network snapshot (params, masks, BN stats)
	secOpt  = "opt"  // SGD momentum buffers ([]*tensor.Tensor, gob)
	secRNG  = "rng"  // shuffle/augmentation RNG cursor (tensor.RNG state)
	secPerm = "perm" // loader shuffle permutation ([]int, gob)
	secBest = "best" // KeepBest network snapshot (present iff HasBest)
	secADMM = "admm" // prune.ADMMState (gob, present iff ADMM configured)
)

// trainMeta identifies the training position a checkpoint captures and
// carries the run bookkeeping that is not tensor state. A checkpoint
// is only resumed when Seed, Stage, Epochs, and FaultRate all match
// the configured run — otherwise it belongs to a different experiment
// and is ignored.
type trainMeta struct {
	Seed      uint64
	Stage     int
	Epochs    int // per-stage epoch budget of the run that wrote this
	Epoch     int // completed epochs within the stage
	FaultRate float64
	Samples   int

	// Numerics records the kernel numerics tier active when the
	// snapshot was written ("" in pre-tier checkpoints means "exact",
	// the only tier that existed). Resuming under a different tier
	// would break the bit-identical-resume contract, so restore
	// starts fresh instead.
	Numerics string

	BestEvalAcc float64
	BestEpoch   int
	HasBest     bool

	// History is the rung-local epoch trace up to Epoch; Prefix is the
	// cumulative trace of completed earlier stages (ProgressiveFT),
	// round-tripped so a resumed ladder reports the full history.
	History []EpochStats
	Prefix  []EpochStats
}

// ckptSaver threads crash-safe checkpointing through one Train call.
// A nil *ckptSaver is the disabled configuration: every method is a
// nil-check away from a plain return, so the no-checkpoint run path
// does not allocate or branch beyond that check (pinned by
// TestCkptDisabledAddsZeroAllocs).
type ckptSaver struct {
	run   *ckpt.Run
	every int
	sink  obs.Sink

	net    *nn.Network
	opt    *optim.SGD
	rng    *tensor.RNG
	loader *data.Loader
	admm   *prune.ADMM

	seed   uint64
	stage  int
	epochs int
	rate   float64
	prefix []EpochStats

	// pending is the fully captured state of the last completed epoch;
	// saved tracks whether it already reached disk, so a cancellation
	// mid-epoch can flush the last boundary exactly once.
	pending map[string][]byte
	saved   bool
}

// newCkptSaver builds the saver for a normalized config, or nil when
// checkpointing is disabled.
func newCkptSaver(cfg *Config, net *nn.Network, opt *optim.SGD, rng *tensor.RNG, loader *data.Loader) *ckptSaver {
	if cfg.Ckpt == nil {
		return nil
	}
	every := cfg.CkptEvery
	if every < 1 {
		every = 1
	}
	rate := cfg.FaultRate
	if cfg.Pinned != nil {
		rate = cfg.Pinned.Psa
	}
	return &ckptSaver{
		run: cfg.Ckpt, every: every, sink: cfg.Sink,
		net: net, opt: opt, rng: rng, loader: loader, admm: cfg.ADMM,
		seed: cfg.Seed, stage: cfg.ckptStage, epochs: cfg.Epochs,
		rate: rate, prefix: cfg.ckptPrefix,
	}
}

func gobEncode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("core: checkpoint gob encode: %v", err)) // in-memory encode of our own types cannot fail
	}
	return buf.Bytes()
}

// capture serializes the full training state at an epoch boundary:
// epoch epochs are complete, the optimizer has applied its last step,
// and the shuffle RNG sits exactly where the next epoch's reshuffle
// will draw from.
func (c *ckptSaver) capture(epoch int, res *Result, bestState []byte, samples int) map[string][]byte {
	meta := trainMeta{
		Seed: c.seed, Stage: c.stage, Epochs: c.epochs, Epoch: epoch + 1,
		FaultRate: c.rate, Samples: samples,
		Numerics:    tensor.ActiveNumerics().String(),
		BestEvalAcc: res.BestEvalAcc, BestEpoch: res.BestEpoch,
		HasBest: bestState != nil,
		History: res.History, Prefix: c.prefix,
	}
	rngState, err := c.rng.MarshalState()
	if err != nil {
		panic(fmt.Sprintf("core: RNG state capture: %v", err))
	}
	sections := map[string][]byte{
		secMeta: gobEncode(&meta),
		secNet:  c.net.Snapshot(),
		secOpt:  gobEncode(c.opt.ExportState()),
		secRNG:  rngState,
		secPerm: gobEncode(c.loader.PermState()),
	}
	if bestState != nil {
		sections[secBest] = bestState
	}
	if c.admm != nil {
		sections[secADMM] = gobEncode(c.admm.ExportState())
	}
	return sections
}

// epochEnd records the just-completed epoch's state and writes it to
// disk when the epoch lands on the save interval or is the stage's
// last. Write failures are reported through the sink and otherwise
// ignored: losing crash-safety must not kill a healthy training run.
func (c *ckptSaver) epochEnd(epoch int, res *Result, bestState []byte, samples int) {
	if c == nil {
		return
	}
	c.pending = c.capture(epoch, res, bestState, samples)
	c.saved = false
	if (epoch+1)%c.every == 0 || epoch+1 == c.epochs {
		c.flush(epoch + 1)
	}
}

// onCancel flushes the last completed epoch's state if it has not
// reached disk yet — the "SIGINT writes a final checkpoint" path. The
// in-flight epoch is deliberately not captured: mid-epoch weights are
// not a resumable boundary, and the resumed run replays the whole
// interrupted epoch bit-identically instead.
func (c *ckptSaver) onCancel(epoch int) {
	if c == nil || c.pending == nil || c.saved {
		return
	}
	c.flush(epoch)
}

// flush writes the pending snapshot; completedEpochs is only used for
// the ckpt.save event.
func (c *ckptSaver) flush(completedEpochs int) {
	path, size, err := c.run.Save(c.pending)
	if err != nil {
		obs.Logf(c.sink, "checkpoint save failed (training continues without crash safety): %v", err)
		return
	}
	c.saved = true
	if c.sink.Enabled() {
		c.sink.Emit(obs.Event{
			Kind: obs.KindCkptSave, Key: path,
			Epoch: completedEpochs, Stage: c.stage, N: size,
		})
	}
}

// restore loads the newest intact checkpoint matching this run and
// applies it to the network, optimizer, RNG, and (when configured)
// ADMM state, returning the number of completed epochs to skip plus
// the restored KeepBest snapshot and sample counter. A checkpoint for
// a different stage/seed/budget is silently ignored (normal when a
// multi-stage run resumes past it); one that matches but fails to
// apply is reported and ignored, leaving the fresh-start state intact.
// Returns 0 start epochs when there is nothing to resume.
func (c *ckptSaver) restore(res *Result) (startEpoch int, bestState []byte, samples int) {
	if c == nil {
		return 0, nil, 0
	}
	sections, path, ok := c.run.Load()
	if !ok {
		return 0, nil, 0
	}
	var meta trainMeta
	if err := gob.NewDecoder(bytes.NewReader(sections[secMeta])).Decode(&meta); err != nil {
		obs.Logf(c.sink, "checkpoint %s meta undecodable (%v); starting fresh", path, err)
		return 0, nil, 0
	}
	if meta.Stage != c.stage {
		// A different phase of this run's sequence — expected during
		// multi-stage resumes, not worth a log line.
		return 0, nil, 0
	}
	if meta.Seed != c.seed || meta.Epochs != c.epochs || meta.FaultRate != c.rate ||
		meta.Epoch < 1 || meta.Epoch > c.epochs || len(meta.History) != meta.Epoch {
		obs.Logf(c.sink, "checkpoint %s belongs to a different run (seed/budget/rate mismatch); starting fresh", path)
		return 0, nil, 0
	}
	ckptTier := meta.Numerics
	if ckptTier == "" {
		ckptTier = tensor.NumericsExact.String() // pre-tier checkpoint
	}
	if active := tensor.ActiveNumerics().String(); ckptTier != active {
		obs.Logf(c.sink, "checkpoint %s was written under %s numerics but the process tier is %s; starting fresh (resume must be bit-identical)", path, ckptTier, active)
		return 0, nil, 0
	}
	if c.admm != nil && sections[secADMM] == nil {
		obs.Logf(c.sink, "checkpoint %s lacks ADMM state; starting fresh", path)
		return 0, nil, 0
	}
	// Decode everything before mutating anything, so a half-bad
	// checkpoint cannot leave the run in a mixed state.
	var velocity []*tensor.Tensor
	if err := gob.NewDecoder(bytes.NewReader(sections[secOpt])).Decode(&velocity); err != nil {
		obs.Logf(c.sink, "checkpoint %s optimizer state undecodable (%v); starting fresh", path, err)
		return 0, nil, 0
	}
	var perm []int
	if err := gob.NewDecoder(bytes.NewReader(sections[secPerm])).Decode(&perm); err != nil {
		obs.Logf(c.sink, "checkpoint %s loader state undecodable (%v); starting fresh", path, err)
		return 0, nil, 0
	}
	var admmState *prune.ADMMState
	if c.admm != nil {
		if err := gob.NewDecoder(bytes.NewReader(sections[secADMM])).Decode(&admmState); err != nil {
			obs.Logf(c.sink, "checkpoint %s ADMM state undecodable (%v); starting fresh", path, err)
			return 0, nil, 0
		}
	}
	orig := c.net.Snapshot()
	apply := func() error {
		if err := c.net.Restore(sections[secNet]); err != nil {
			return fmt.Errorf("network: %w", err)
		}
		if err := c.opt.ImportState(velocity); err != nil {
			return fmt.Errorf("optimizer: %w", err)
		}
		if c.admm != nil {
			if err := c.admm.ImportState(admmState); err != nil {
				return fmt.Errorf("admm: %w", err)
			}
		}
		if err := c.rng.UnmarshalState(sections[secRNG]); err != nil {
			return fmt.Errorf("rng: %w", err)
		}
		if err := c.loader.SetPermState(perm); err != nil {
			return fmt.Errorf("loader: %w", err)
		}
		return nil
	}
	if err := apply(); err != nil {
		// Roll the network back to its fresh-start weights; restoring
		// our own snapshot onto the same architecture cannot fail.
		if rerr := c.net.Restore(orig); rerr != nil {
			panic(fmt.Sprintf("core: checkpoint rollback failed: %v", rerr))
		}
		obs.Logf(c.sink, "checkpoint %s unusable (%v); starting fresh", path, err)
		return 0, nil, 0
	}
	res.History = append(res.History, meta.History...)
	res.BestEvalAcc = meta.BestEvalAcc
	res.BestEpoch = meta.BestEpoch
	if meta.HasBest {
		bestState = append([]byte(nil), sections[secBest]...)
	}
	// The restored state is exactly what epochEnd captured, so a
	// cancellation before the next boundary has nothing new to flush.
	c.pending = sections
	c.saved = true
	if c.sink.Enabled() {
		c.sink.Emit(obs.Event{
			Kind: obs.KindCkptRestore, Key: path,
			Epoch: meta.Epoch, Stage: meta.Stage,
		})
	}
	return meta.Epoch, bestState, meta.Samples
}

// peekCkptMeta decodes just the meta section of a run's newest intact
// checkpoint — ProgressiveFT uses it to decide which ladder stage to
// resume at before entering the stage loop. Returns nil when there is
// nothing to resume.
func peekCkptMeta(run *ckpt.Run) *trainMeta {
	if run == nil {
		return nil
	}
	sections, _, ok := run.Load()
	if !ok {
		return nil
	}
	var meta trainMeta
	if err := gob.NewDecoder(bytes.NewReader(sections[secMeta])).Decode(&meta); err != nil {
		return nil
	}
	return &meta
}
