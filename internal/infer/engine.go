// Package infer is the batched, concurrency-safe execution layer between
// the CNN framework (internal/nn) and its callers (internal/core, the
// trainer's evaluation, the CLIs). It owns the worker-pool idiom the layer
// design enables: layers hold only immutable parameters, so a single
// network can serve as many concurrent passes as there are workers, each
// worker owning one nn.Context (activation caches + batch-sized
// im2col/GEMM scratch) and, when configured, one reliable.Engine for the
// reliably executed portion.
//
// Execution is sub-batch native: a batch of N images is split into
// contiguous NCHW sub-batches (Config.SubBatch images each, default
// ⌈N/workers⌉) and each worker drives its sub-batches through
// nn.Sequential.ForwardBatch — ONE blocked GEMM per layer per sub-batch, so
// convolution and dense layers stream their weights once per sub-batch.
// Throughput rises with batch size (weight-traffic amortisation) on top of
// rising with workers (parallelism), until the GEMM memory bandwidth
// saturates. Sub-batches are claimed through internal/pool work stealing,
// so ragged tails (N not divisible by workers×SubBatch) still balance.
//
// # Concurrency contract
//
// A BatchEngine runs ONE batch at a time: RunSub serialises overlapping
// callers through a mutex, because the per-worker contexts are not
// re-entrant. Within a batch, sub-batches are claimed lock-free through
// internal/pool work stealing; each worker touches only its own nn.Context
// and reliable.Engine, so no state is shared between workers except the
// immutable network weights.
package infer

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/nn"
	"repro/internal/pool"
	"repro/internal/reliable"
	"repro/internal/tensor"
)

// Worker is the per-goroutine execution state handed to RunSub callbacks.
type Worker struct {
	// ID is the worker index in [0, Workers).
	ID int
	// Ctx is the worker's private forward/backward context.
	Ctx *nn.Context
	// Engine is the worker's reliable-execution engine (nil unless the
	// BatchEngine was built with an EngineFactory).
	Engine *reliable.Engine
}

// Config parameterises a BatchEngine.
type Config struct {
	// Workers is the pool size; 0 defaults to runtime.GOMAXPROCS(0).
	Workers int
	// SubBatch caps how many images a worker packs into one NCHW sub-batch
	// (one GEMM per layer per sub-batch). 0 defaults to ⌈batch/workers⌉ —
	// the whole batch in one GEMM sweep per worker. Smaller values trade
	// GEMM size for steal granularity (better balance when per-image cost
	// varies); 1 runs every image as its own N=1 batch.
	SubBatch int
	// EngineFactory, when non-nil, builds one reliable.Engine per worker
	// (hybrid classification and fault campaigns need one; plain CNN
	// prediction does not).
	EngineFactory func() (*reliable.Engine, error)
}

// BatchEngine fans sub-batches out across a fixed pool of workers. The
// network (if any) is shared; every mutable artefact is per-worker. A
// BatchEngine is safe for reuse across many batches — contexts and their
// scratch buffers persist, which is where the allocation win of batching
// lives — and for concurrent callers, whose batches queue on the engine
// mutex and run one at a time.
type BatchEngine struct {
	net      *nn.Sequential
	workers  []*Worker
	subBatch int
	mu       sync.Mutex // serialises batches: worker contexts are not re-entrant
}

// New builds a pool over net (which may be nil for engines used only via
// RunSub with closures that carry their own workload).
func New(net *nn.Sequential, cfg Config) (*BatchEngine, error) {
	n := cfg.Workers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, fmt.Errorf("infer: worker count %d must be >= 1", cfg.Workers)
	}
	if cfg.SubBatch < 0 {
		return nil, fmt.Errorf("infer: sub-batch size %d must be >= 0", cfg.SubBatch)
	}
	e := &BatchEngine{net: net, workers: make([]*Worker, n), subBatch: cfg.SubBatch}
	for i := range e.workers {
		w := &Worker{ID: i, Ctx: nn.NewContext()}
		if cfg.EngineFactory != nil {
			eng, err := cfg.EngineFactory()
			if err != nil {
				return nil, fmt.Errorf("infer: worker %d engine: %w", i, err)
			}
			w.Engine = eng
		}
		e.workers[i] = w
	}
	return e, nil
}

// Workers returns the pool size.
func (e *BatchEngine) Workers() int { return len(e.workers) }

// Net returns the shared network (possibly nil).
func (e *BatchEngine) Net() *nn.Sequential { return e.net }

// SubBatch returns the configured sub-batch cap (0 = ⌈batch/workers⌉).
func (e *BatchEngine) SubBatch() int { return e.subBatch }

// subBatchFor resolves the effective sub-batch size for an n-item batch.
func (e *BatchEngine) subBatchFor(n int) int {
	s := e.subBatch
	if s <= 0 {
		s = (n + len(e.workers) - 1) / len(e.workers)
	}
	if s < 1 {
		s = 1
	}
	return s
}

// RunSub executes fn(worker, lo, hi) over contiguous sub-batches [lo, hi) of
// an n-item batch. Sub-batch size is Config.SubBatch (default
// ⌈n/workers⌉); sub-batches are claimed through work stealing, so a ragged
// tail (or a worker stuck on a slow sub-batch) rebalances instead of
// stalling the batch. Results must be written to disjoint [lo, hi) slices,
// which keeps the callback race-free. Overlapping calls from different
// goroutines queue on the engine mutex. The first error cancels remaining
// work and is returned.
func (e *BatchEngine) RunSub(n int, fn func(w *Worker, lo, hi int) error) error {
	if fn == nil {
		return fmt.Errorf("infer: run needs a work function")
	}
	if n <= 0 {
		return nil
	}
	size := e.subBatchFor(n)
	e.mu.Lock()
	defer e.mu.Unlock()
	err := pool.Run((n+size-1)/size, len(e.workers), func(worker, ci int) error {
		return fn(e.workers[worker], ci*size, min(ci*size+size, n))
	})
	if err != nil {
		return fmt.Errorf("infer: %w", err)
	}
	return nil
}

// Stats sums the reliable-execution work counters across all workers —
// the campaign-level aggregate. Zero when no EngineFactory was configured.
func (e *BatchEngine) Stats() reliable.Stats {
	var s reliable.Stats
	for _, w := range e.workers {
		if w.Engine != nil {
			s.Add(w.Engine.Stats())
		}
	}
	return s
}

// Prediction is one classification result from Predict.
type Prediction struct {
	Class int
	Probs []float32
}

// Predict classifies every input through the shared network and returns
// softmax probabilities and argmax classes in input order. Inputs group by
// shape (tensor.GroupByShape); each group's sub-batches pack into NCHW
// tensors (a lone image is an N=1 view) and run with one GEMM per layer,
// then each logits row is softmaxed individually. A sample's result is the
// same bits whatever batch it rode in, so results do not depend on the
// worker count, the sub-batch size or the other inputs.
func (e *BatchEngine) Predict(xs []*tensor.Tensor) ([]Prediction, error) {
	if e.net == nil {
		return nil, fmt.Errorf("infer: engine has no network")
	}
	preds := make([]Prediction, len(xs))
	for _, group := range tensor.GroupByShape(xs) {
		err := e.RunSub(len(group), func(w *Worker, lo, hi int) error {
			batch, err := tensor.StackAt(xs, group[lo:hi])
			if err != nil {
				return err
			}
			logits, err := e.net.ForwardBatch(w.Ctx, batch)
			if err != nil {
				return err
			}
			for j, i := range group[lo:hi] {
				row, err := logits.Sample(j)
				if err != nil {
					return err
				}
				probs, class, err := nn.SoftmaxArgmax(row)
				if err != nil {
					return err
				}
				preds[i] = Prediction{Class: class, Probs: probs}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return preds, nil
}
