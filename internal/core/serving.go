package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/tensor"
)

// ClassifierConfig parameterises a BatchClassifier.
type ClassifierConfig struct {
	// Workers is the pool size (<= 0 defaults to GOMAXPROCS).
	Workers int
	// SubBatch caps how many images one worker packs into an NCHW
	// micro-batch for the CNN stage (one GEMM per layer per sub-batch).
	// 0 defaults to ⌈batch/workers⌉ — see infer.Config.SubBatch.
	SubBatch int
}

// BatchClassifier is a persistent pooled hybrid classifier: the worker pool
// — one forward context and one reliable engine per worker — is built once
// and reused across every batch, so a serving layer pays the engine
// construction cost at startup instead of per call. It is safe for
// concurrent use: overlapping ClassifyBatch calls serialize on the pool,
// each batch running with the full pool.
//
// Execution is sub-batch native: each worker claims contiguous sub-batches
// of the incoming batch, runs the reliable stage and qualifier per image
// (per-execution bucket/counter semantics) and the non-reliable CNN portion
// as ONE NCHW batch per input shape — so the serve tier's MaxBatch directly
// sets how much weight-streaming the GEMMs amortise.
type BatchClassifier struct {
	h    *HybridNetwork
	pool *infer.BatchEngine
}

// NewBatchClassifier builds the persistent pool (workers <= 0 defaults to
// GOMAXPROCS) over the hybrid network's shared weights, with the default
// sub-batch policy.
func (h *HybridNetwork) NewBatchClassifier(workers int) (*BatchClassifier, error) {
	return h.NewBatchClassifierConfig(ClassifierConfig{Workers: workers})
}

// NewBatchClassifierConfig is NewBatchClassifier with an explicit sub-batch
// cap.
func (h *HybridNetwork) NewBatchClassifierConfig(cfg ClassifierConfig) (*BatchClassifier, error) {
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	if cfg.SubBatch < 0 {
		cfg.SubBatch = 0
	}
	pool, err := infer.New(h.net, infer.Config{
		Workers: cfg.Workers, SubBatch: cfg.SubBatch, EngineFactory: h.newEngine,
	})
	if err != nil {
		return nil, err
	}
	return &BatchClassifier{h: h, pool: pool}, nil
}

// Workers returns the pool size.
func (c *BatchClassifier) Workers() int { return c.pool.Workers() }

// SubBatch returns the configured sub-batch cap (0 = ⌈batch/workers⌉).
func (c *BatchClassifier) SubBatch() int { return c.pool.SubBatch() }

// ClassifyBatch classifies every image across the pool, returning results
// in input order plus the batch's per-stage wall-time breakdown (reliable
// stage, qualifier, batched CNN), summed across the workers that processed
// its sub-batches. pipes[i] selects image i's pipeline: PipelineFull keeps
// the full hybrid semantics — the reliable stage runs per image, with each
// worker's leaky bucket reset between images and the reliable-work counters
// reported as per-inference deltas, exactly as Classify — while
// PipelineCNN runs the batched CNN only (no reliable stage, no qualifier:
// its Result carries a zero Qualifier and safety-critical classes decide
// Rejected). nil pipes means PipelineFull for every image. Within a
// sub-batch fast images coalesce with the full images' feature maps into
// one batched CNN continuation, and a sample's CNN output does not depend
// on its batch, so full-pipeline results are bit-identical to Classify
// whatever the batch mix.
func (c *BatchClassifier) ClassifyBatch(imgs []*tensor.Tensor, pipes []Pipeline) ([]Result, StageTimes, error) {
	if pipes != nil && len(pipes) != len(imgs) {
		return nil, StageTimes{}, fmt.Errorf("core: %d pipelines for %d images", len(pipes), len(imgs))
	}
	results := make([]Result, len(imgs))
	// Chunks complete on concurrent pool workers; fold their per-chunk
	// stage times atomically.
	var reliableNS, qualifierNS, cnnNS atomic.Int64
	err := c.pool.RunSub(len(imgs), func(w *infer.Worker, lo, hi int) error {
		var st StageTimes
		var chunkPipes []Pipeline
		if pipes != nil {
			chunkPipes = pipes[lo:hi]
		}
		err := c.h.classifyChunk(w.Ctx, w.Engine, imgs[lo:hi], chunkPipes, results[lo:hi], &st)
		reliableNS.Add(int64(st.Reliable))
		qualifierNS.Add(int64(st.Qualifier))
		cnnNS.Add(int64(st.CNN))
		return err
	})
	times := StageTimes{
		Reliable:  time.Duration(reliableNS.Load()),
		Qualifier: time.Duration(qualifierNS.Load()),
		CNN:       time.Duration(cnnNS.Load()),
	}
	if err != nil {
		return nil, times, err
	}
	return results, times, nil
}
