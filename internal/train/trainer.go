package train

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Trainer drives mini-batch SGD over a dataset with optional filter-freeze
// policies and an epoch callback. With Workers > 1 each mini-batch is split
// across a pool of goroutines running the SAME network through per-worker
// contexts with shadow gradients (data-parallel backward); the shadows are
// reduced into the canonical gradients before the optimiser step, so the
// update rule is identical to the serial path up to floating-point
// summation order and per-worker dropout streams.
//
// Within each worker's shard the samples stack into NCHW batches that run
// through ForwardBatch/BackwardBatch — one GEMM per layer per direction per
// batch, so conv and fc weight matrices stream once per batch instead of
// once per sample. SubBatch caps the batch size; samples of different image
// shapes batch separately (one batch per shape). Worker parallelism
// composes with intra-GEMM parallelism (tensor.SetGemmWorkers): total
// concurrency ≈ Workers × gemm workers.
type Trainer struct {
	// Net is the network to train.
	Net *nn.Sequential
	// Opt is the optimiser.
	Opt *SGD
	// BatchSize is the mini-batch size (default 16 via Normalize).
	BatchSize int
	// Epochs is the number of passes over the data (default 5).
	Epochs int
	// Workers is the per-batch parallelism (default 1 = serial, bit-exact
	// reproducible; more workers trade exact reproducibility for speed).
	Workers int
	// SubBatch caps how many samples of a worker's shard run through one
	// ForwardBatch/BackwardBatch pass: 0 (the default) batches the whole
	// shard in one pass, N >= 1 caps each pass at N samples (bounding the
	// batch-sized activation/scratch memory; 1 runs N=1 batches).
	// Gradients are golden-equivalent across settings (≤1e-5, scaled);
	// only float32 summation order differs.
	SubBatch int
	// Freezes are the active filter-freeze policies.
	Freezes []*FilterFreeze
	// OnEpoch, when non-nil, is called after every epoch with the epoch
	// index (0-based) and mean training loss; returning an error aborts.
	OnEpoch func(epoch int, meanLoss float64) error
	// Rng shuffles the data each epoch and seeds the per-worker dropout
	// streams.
	Rng *rand.Rand
}

// normalize validates the trainer and applies defaults.
func (t *Trainer) normalize() error {
	if t.Net == nil {
		return fmt.Errorf("train: trainer needs a network")
	}
	if t.Opt == nil {
		return fmt.Errorf("train: trainer needs an optimiser")
	}
	if t.Rng == nil {
		return fmt.Errorf("train: trainer needs an rng")
	}
	if t.BatchSize == 0 {
		t.BatchSize = 16
	}
	if t.BatchSize < 1 {
		return fmt.Errorf("train: batch size %d must be >= 1", t.BatchSize)
	}
	if t.Epochs == 0 {
		t.Epochs = 5
	}
	if t.Epochs < 1 {
		return fmt.Errorf("train: epochs %d must be >= 1", t.Epochs)
	}
	if t.Workers == 0 {
		t.Workers = 1
	}
	if t.Workers < 1 {
		return fmt.Errorf("train: workers %d must be >= 1", t.Workers)
	}
	if t.SubBatch < 0 {
		return fmt.Errorf("train: sub-batch %d must be >= 0 (0 = whole shard)", t.SubBatch)
	}
	return nil
}

// Fit trains on the dataset and returns the mean training loss of the final
// epoch.
func (t *Trainer) Fit(ds *gtsrb.Dataset) (float64, error) {
	if err := t.normalize(); err != nil {
		return 0, err
	}
	if ds == nil || ds.Len() == 0 {
		return 0, fmt.Errorf("train: empty dataset")
	}

	// One training context per worker. Workers accumulate gradients into
	// context-local shadows (raceless); the serial single-worker path
	// accumulates into the canonical gradients directly.
	ctxs := make([]*nn.Context, t.Workers)
	for i := range ctxs {
		ctx := nn.NewContext()
		ctx.SetTraining(true)
		ctx.SetRand(rand.New(rand.NewSource(t.Rng.Int63())))
		if t.Workers > 1 {
			ctx.ShadowGrads(true)
		}
		ctxs[i] = ctx
	}

	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	var lastMean float64
	for epoch := 0; epoch < t.Epochs; epoch++ {
		t.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var lossSum float64
		var seen int
		for start := 0; start < len(order); start += t.BatchSize {
			end := start + t.BatchSize
			if end > len(order) {
				end = len(order)
			}
			t.Net.ZeroGrads()
			batchLoss, err := t.runBatch(ctxs, ds, order[start:end], epoch)
			if err != nil {
				return 0, err
			}
			lossSum += batchLoss
			seen += end - start
			for _, f := range t.Freezes {
				if err := f.BeforeStep(); err != nil {
					return 0, fmt.Errorf("train: epoch %d freeze: %w", epoch, err)
				}
			}
			if err := t.Opt.Step(t.Net.Params(), end-start); err != nil {
				return 0, fmt.Errorf("train: epoch %d step: %w", epoch, err)
			}
			for _, f := range t.Freezes {
				if err := f.AfterStep(); err != nil {
					return 0, fmt.Errorf("train: epoch %d freeze pin: %w", epoch, err)
				}
			}
		}
		for _, f := range t.Freezes {
			if err := f.AfterEpoch(); err != nil {
				return 0, fmt.Errorf("train: epoch %d freeze reset: %w", epoch, err)
			}
		}
		lastMean = lossSum / float64(seen)
		if t.OnEpoch != nil {
			if err := t.OnEpoch(epoch, lastMean); err != nil {
				return lastMean, fmt.Errorf("train: epoch callback: %w", err)
			}
		}
	}
	return lastMean, nil
}

// runBatch runs forward/backward over one mini-batch, serially or across
// the worker contexts, and leaves the summed gradients in the canonical
// Param.Grad tensors. It returns the batch's total loss.
func (t *Trainer) runBatch(ctxs []*nn.Context, ds *gtsrb.Dataset, batch []int, epoch int) (float64, error) {
	if len(ctxs) == 1 {
		return t.runShard(ctxs[0], ds, batch, epoch)
	}
	workers := len(ctxs)
	if workers > len(batch) {
		workers = len(batch)
	}
	// Contiguous shards, one per worker: sample order inside a shard is
	// deterministic given the epoch shuffle.
	losses := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := len(batch) * w / workers
		hi := len(batch) * (w + 1) / workers
		go func(w, lo, hi int) {
			defer wg.Done()
			losses[w], errs[w] = t.runShard(ctxs[w], ds, batch[lo:hi], epoch)
		}(w, lo, hi)
	}
	wg.Wait()
	var loss float64
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return 0, errs[w]
		}
		loss += losses[w]
	}
	// Reduce the shadow gradients into the canonical accumulators.
	for w := 0; w < workers; w++ {
		if err := ctxs[w].FlushGrads(); err != nil {
			return 0, fmt.Errorf("train: epoch %d reduce: %w", epoch, err)
		}
	}
	return loss, nil
}

// runShard processes one worker's shard of a mini-batch through one
// context in batches of at most SubBatch samples (the whole shard when
// SubBatch == 0). Gradients accumulate into the context's target buffers;
// the summed loss is returned.
func (t *Trainer) runShard(ctx *nn.Context, ds *gtsrb.Dataset, idxs []int, epoch int) (float64, error) {
	size := t.SubBatch
	if size == 0 {
		size = len(idxs)
	}
	var lossSum float64
	for start := 0; start < len(idxs); start += size {
		loss, err := t.runBatched(ctx, ds, idxs[start:min(start+size, len(idxs))], epoch)
		if err != nil {
			return 0, err
		}
		lossSum += loss
	}
	return lossSum, nil
}

// runBatched drives one sub-batch of samples through ForwardBatch, the
// batched softmax-cross-entropy gradient and BackwardBatch — one GEMM per
// layer per direction, one batch per image shape in the sub-batch (stable
// first-seen order). A single sample runs as an N=1 view, without a copy.
func (t *Trainer) runBatched(ctx *nn.Context, ds *gtsrb.Dataset, idxs []int, epoch int) (float64, error) {
	imgs := make([]*tensor.Tensor, len(idxs))
	for i, idx := range idxs {
		imgs[i] = ds.Examples[idx].Image
	}
	var lossSum float64
	for _, group := range tensor.GroupByShape(imgs) {
		batch, err := tensor.StackAt(imgs, group)
		if err != nil {
			return 0, fmt.Errorf("train: epoch %d stack: %w", epoch, err)
		}
		labels := make([]int, len(group))
		for j, k := range group {
			labels[j] = ds.Examples[idxs[k]].Label
		}
		logits, err := t.Net.ForwardBatch(ctx, batch)
		if err != nil {
			return 0, fmt.Errorf("train: epoch %d forward: %w", epoch, err)
		}
		loss, grad, err := nn.CrossEntropyLossBatch(logits, labels)
		if err != nil {
			return 0, fmt.Errorf("train: epoch %d loss: %w", epoch, err)
		}
		if _, err := t.Net.BackwardBatch(ctx, grad); err != nil {
			return 0, fmt.Errorf("train: epoch %d backward: %w", epoch, err)
		}
		lossSum += loss
	}
	return lossSum, nil
}
