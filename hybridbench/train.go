package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// errTimeUp stops Trainer.Fit from its epoch callback when the run's time
// is up.
var errTimeUp = errors.New("time up")

// trainRig is a micro-AlexNet with its SGD trainer.
type trainRig struct {
	net *nn.Sequential
	tr  *train.Trainer
}

func newTrainRig(env *env) (*trainRig, error) {
	cfg := nn.DefaultMicroConfig()
	cfg.InputSize = env.cfg.ImageSize
	cfg.Conv1Filters = env.cfg.Conv1Filters
	net, err := nn.NewMicroAlexNet(cfg, rand.New(rand.NewSource(env.seed)))
	if err != nil {
		return nil, err
	}
	opt, err := train.NewSGD(0.03, 0.9, 1e-4)
	if err != nil {
		return nil, err
	}
	return &trainRig{net: net, tr: &train.Trainer{
		Net: net, Opt: opt, BatchSize: env.cfg.TrainBatch, Epochs: 1,
		Workers: env.workers, Rng: rand.New(rand.NewSource(env.seed + 2)),
	}}, nil
}

// trainWorkload trains the micro-AlexNet on a seeded synthetic dataset with
// one data-parallel worker per core, for as many epochs as fit in the run.
// The loss must stay finite and fall between the first and last epochs.
func trainWorkload(env *env, dur time.Duration, rec *recorder) (*outcome, error) {
	ds, err := gtsrb.Generate(gtsrb.Config{Size: env.cfg.ImageSize, PerClass: env.cfg.TrainPerClass},
		rand.New(rand.NewSource(env.seed+3)))
	if err != nil {
		return nil, err
	}
	warm := &gtsrb.Dataset{Examples: ds.Examples[:env.cfg.TrainBatch], Classes: ds.Classes, Size: ds.Size}

	var rig *trainRig
	build := func() error {
		if rig, err = newTrainRig(env); err != nil {
			return err
		}
		if _, err := rig.tr.Fit(warm); err != nil {
			return fmt.Errorf("warm-up step: %w", err)
		}
		return nil
	}
	before, after := env.setupReps()
	setups, err := env.timeSetups(before, build, nil)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	var ends []time.Time
	var losses []float64
	start := time.Now()
	end := start.Add(dur)
	rig.tr.Epochs = math.MaxInt32
	last := start
	rig.tr.OnEpoch = func(epoch int, loss float64) error {
		now := time.Now()
		rec.child(0, int64(epoch), "train.epoch", last, now)
		last = now
		ends = append(ends, now)
		losses = append(losses, loss)
		if now.After(end) {
			return errTimeUp
		}
		return nil
	}
	o.mem.start()
	if _, err := rig.tr.Fit(ds); !errors.Is(err, errTimeUp) {
		return nil, fmt.Errorf("fit: %w", err)
	}
	o.mem.stop()

	from := start.Add(env.warmup(dur))
	var epochMS []float64
	var epochs []sample
	prev := start
	for i, t := range ends {
		o.attempted += ds.Len()
		if math.IsNaN(losses[i]) || math.IsInf(losses[i], 0) {
			o.failed += ds.Len()
			o.mismatches++
		}
		if !prev.Before(from) && t.Before(end) {
			epochMS = append(epochMS, ms(t.Sub(prev)))
		}
		epochs = append(epochs, sample{prev, ms(t.Sub(prev))})
		prev = t
	}
	if len(losses) < 2 || !(losses[len(losses)-1] < losses[0]) {
		o.mismatches++
	}
	if len(epochMS) == 0 {
		return nil, fmt.Errorf("no whole epoch in the measured window; raise --seconds")
	}
	o.ops = len(ends) * ds.Len()
	k := env.cfg.Slices
	o.set("throughput_per_s", float64(ds.Len())*env.overSlices(sliceRates(ends, from, end, k)), len(epochMS))
	o.set("latency_p50_ms", env.overSlices(sliceQuantiles(epochs, from, end, k, 0.5)), len(epochMS))
	o.set("latency_p90_ms", env.overSlices(sliceQuantiles(epochs, from, end, k, 0.9)), len(epochMS))
	if rec != nil {
		o.layers["train.epoch_s"] = median(rec.layers()["train.epoch"].durs()) / 1000
		if err := trainStepProbe(env, o, rig, ds, rec); err != nil {
			return nil, err
		}
	}
	late, err := env.timeSetups(after, build, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, late...)
	o.set("setup_s", median(setups), len(setups))
	return o, nil
}

// trainStepProbe times the batched forward and backward passes of single
// mini-batches through the Sequential batch entry points, the two halves of
// every training step.
func trainStepProbe(env *env, o *outcome, rig *trainRig, ds *gtsrb.Dataset, rec *recorder) error {
	ctx := nn.NewContext()
	ctx.SetTraining(true)
	ctx.SetRand(rand.New(rand.NewSource(env.seed + 4)))
	var fwd, bwd []float64
	for b := range env.cfg.TrainProbeBatches {
		lo := (b * env.cfg.TrainBatch) % (ds.Len() - env.cfg.TrainBatch + 1)
		imgs := make([]*tensor.Tensor, env.cfg.TrainBatch)
		labels := make([]int, env.cfg.TrainBatch)
		for i := range imgs {
			imgs[i], labels[i] = ds.Examples[lo+i].Image, ds.Examples[lo+i].Label
		}
		batch, err := tensor.Stack(imgs)
		if err != nil {
			return err
		}
		root := rec.id()
		t0 := time.Now()
		logits, err := rig.net.ForwardBatch(ctx, batch)
		if err != nil {
			return err
		}
		t1 := time.Now()
		loss, grad, err := nn.CrossEntropyLossBatch(logits, labels)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := rig.net.BackwardBatch(ctx, grad); err != nil {
			return err
		}
		t3 := time.Now()
		rig.net.ZeroGrads()
		rec.child(root, int64(b), "nn.train_forward", t0, t1)
		rec.child(root, int64(b), "nn.train_backward", t2, t3)
		rec.add(root, 0, int64(b), "train.step_probe", t0, t3)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			o.mismatches++
			o.failed++
		}
		fwd, bwd = append(fwd, ms(t1.Sub(t0))), append(bwd, ms(t3.Sub(t2)))
	}
	o.layers["nn.train_forward_ms_per_batch"] = median(fwd)
	o.layers["nn.train_backward_ms_per_batch"] = median(bwd)
	return nil
}
