package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// StageTimes is the per-stage wall-time breakdown of the classify
// pipeline: the reliable stage (edge convolution or DCNN prefix), the
// shape qualifier, and the batched non-reliable CNN. Each worker measures
// the chunks it processes, so across a pooled batch the fields are
// summed per-worker wall time — they can exceed the batch's wall clock
// when workers run in parallel, the same way CPU time can. Zero-valued
// when the caller did not ask for timing.
type StageTimes struct {
	Reliable  time.Duration `json:"reliable_ns"`
	Qualifier time.Duration `json:"qualifier_ns"`
	CNN       time.Duration `json:"cnn_ns"`
}

// Add accumulates other into s.
func (s *StageTimes) Add(other StageTimes) {
	s.Reliable += other.Reliable
	s.Qualifier += other.Qualifier
	s.CNN += other.CNN
}

// Wiring selects between the paper's two hybrid architectures.
type Wiring int

const (
	// WiringParallel is Figure 1: "maintain a shape-recognition functional
	// block in parallel with a CNN for a general classification". The
	// qualifier path is a reliably executed Sobel convolution on the
	// full-resolution input, independent of the CNN's weights.
	WiringParallel Wiring = iota + 1
	// WiringBifurcated is Figure 2: the first convolution layer (with its
	// Sobel-pre-initialised filters) IS the DCNN; it executes reliably,
	// and its output bifurcates into the remaining CNN layers and the
	// qualifier.
	WiringBifurcated
)

// String implements fmt.Stringer.
func (w Wiring) String() string {
	switch w {
	case WiringParallel:
		return "parallel"
	case WiringBifurcated:
		return "bifurcated"
	default:
		return fmt.Sprintf("wiring(%d)", int(w))
	}
}

// Decision is the verdict of the Reliable Result block.
type Decision int

const (
	// DecisionQualified: a safety-critical classification whose qualifier
	// confirmed the expected shape. Safe to act on.
	DecisionQualified Decision = iota + 1
	// DecisionRejected: a safety-critical classification the qualifier
	// did NOT confirm — "any shape recognised by a CNN is not a Stop sign
	// unless the shape has been confirmed as octagonal".
	DecisionRejected
	// DecisionNotSafetyRelevant: a class that needs no qualification
	// ("e.g., a parking prohibition can be used without qualification").
	DecisionNotSafetyRelevant
	// DecisionExecutionFailed: the reliable execution itself reported a
	// persistent error (bucket trip) — a detected unrecoverable error.
	DecisionExecutionFailed
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecisionQualified:
		return "qualified"
	case DecisionRejected:
		return "rejected"
	case DecisionNotSafetyRelevant:
		return "not-safety-relevant"
	case DecisionExecutionFailed:
		return "execution-failed"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Config assembles a hybrid network.
type Config struct {
	// Wiring selects Figure 1 (parallel) or Figure 2 (bifurcated).
	Wiring Wiring
	// Mode is the DCNN redundancy mode.
	Mode RedundancyMode
	// BucketFactor and BucketCeiling parameterise the leaky bucket
	// (defaults: the paper's 2 and 3).
	BucketFactor, BucketCeiling int
	// SafetyClasses maps a class label to the shape the qualifier must
	// confirm before the classification may be used.
	SafetyClasses map[int]shape.Class
	// Pair locates the Sobel filters in the first convolution layer
	// (bifurcated wiring only).
	Pair SobelPair
	// DCNNDepth is how many leading layers execute reliably in the
	// bifurcated wiring (default 1 — the paper's "one convolution layer";
	// deeper prefixes answer the Section V question of harnessing
	// subsequent layers, at the cost PrefixCost quantifies).
	DCNNDepth int
	// SobelKernel is the kernel size of the parallel wiring's standalone
	// edge stage (default 3).
	SobelKernel int
	// DownsampleFactor reduces the full-resolution input before the CNN
	// (parallel wiring only; default 1 = none).
	DownsampleFactor int
	// ALUs produces the processing elements for the reliable stage
	// (default: ideal).
	ALUs ALUFactory
	// Qualifier overrides the shape qualifier configuration (default:
	// shape.DefaultQualifierConfig).
	Qualifier *shape.QualifierConfig
}

// Result is the hybrid network's full output for one input, retaining every
// artefact a safety case would want to inspect.
type Result struct {
	// Class is the CNN's argmax class; Confidence its softmax probability.
	Class      int
	Confidence float32
	Probs      []float32
	// Decision is the Reliable Result verdict.
	Decision Decision
	// Qualifier is the shape qualifier's full result (zero when execution
	// failed before qualification).
	Qualifier shape.Result
	// Stats counts the reliable-execution work; Bucket snapshots the error
	// counter after the run.
	Stats  reliable.Stats
	Bucket reliable.Snapshot
	// ExecErr is the reliable-execution error for DecisionExecutionFailed.
	ExecErr error
}

// HybridNetwork is the assembled hybrid CNN.
type HybridNetwork struct {
	cfg       Config
	net       *nn.Sequential
	conv1     *nn.Conv2D
	qualifier *shape.Qualifier
	sobelBank *tensor.Tensor // parallel wiring edge stage (2, C, k, k)
}

// NewHybridNetwork wraps a trained CNN into a hybrid network.
func NewHybridNetwork(cfg Config, net *nn.Sequential) (*HybridNetwork, error) {
	if net == nil {
		return nil, fmt.Errorf("core: hybrid needs a CNN")
	}
	if cfg.Wiring != WiringParallel && cfg.Wiring != WiringBifurcated {
		return nil, fmt.Errorf("core: unknown wiring %d", int(cfg.Wiring))
	}
	if _, err := cfg.Mode.PEs(); err != nil {
		return nil, err
	}
	if cfg.BucketFactor == 0 {
		cfg.BucketFactor = reliable.DefaultFactor
	}
	if cfg.BucketCeiling == 0 {
		cfg.BucketCeiling = reliable.DefaultCeiling
	}
	if cfg.SobelKernel == 0 {
		cfg.SobelKernel = 3
	}
	if cfg.DownsampleFactor == 0 {
		cfg.DownsampleFactor = 1
	}
	if cfg.DCNNDepth == 0 {
		cfg.DCNNDepth = 1
	}
	if cfg.DCNNDepth < 1 || cfg.DCNNDepth > net.Len() {
		return nil, fmt.Errorf("core: DCNN depth %d out of [1,%d]", cfg.DCNNDepth, net.Len())
	}
	if len(cfg.SafetyClasses) == 0 {
		return nil, fmt.Errorf("core: hybrid needs at least one safety-critical class")
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		return nil, err
	}
	if cfg.Wiring == WiringBifurcated {
		if cfg.Pair.XIdx == cfg.Pair.YIdx {
			return nil, fmt.Errorf("core: bifurcated wiring needs a Sobel pair with distinct indices")
		}
		if cfg.Pair.XIdx < 0 || cfg.Pair.XIdx >= conv1.Filters() ||
			cfg.Pair.YIdx < 0 || cfg.Pair.YIdx >= conv1.Filters() {
			return nil, fmt.Errorf("core: Sobel pair (%d,%d) out of range [0,%d)",
				cfg.Pair.XIdx, cfg.Pair.YIdx, conv1.Filters())
		}
	}
	qcfg := shape.DefaultQualifierConfig()
	if cfg.Qualifier != nil {
		qcfg = *cfg.Qualifier
	}
	q, err := shape.NewQualifier(qcfg)
	if err != nil {
		return nil, fmt.Errorf("core: hybrid qualifier: %w", err)
	}
	h := &HybridNetwork{cfg: cfg, net: net, conv1: conv1, qualifier: q}
	if cfg.Wiring == WiringParallel {
		// The parallel edge stage convolves the single-channel saliency
		// (colourfulness) image, so the bank has one input channel.
		fx, err := shape.SobelX(cfg.SobelKernel)
		if err != nil {
			return nil, err
		}
		fy, err := shape.SobelY(cfg.SobelKernel)
		if err != nil {
			return nil, err
		}
		bank, err := tensor.New(2, 1, cfg.SobelKernel, cfg.SobelKernel)
		if err != nil {
			return nil, err
		}
		for i, f := range []*tensor.Tensor{fx, fy} {
			view, err := bank.Filter(i)
			if err != nil {
				return nil, err
			}
			ch, err := view.Channel(0)
			if err != nil {
				return nil, err
			}
			if err := ch.CopyFrom(f); err != nil {
				return nil, err
			}
		}
		h.sobelBank = bank
	}
	return h, nil
}

// Net returns the wrapped CNN.
func (h *HybridNetwork) Net() *nn.Sequential { return h.net }

// Qualifier returns the shape qualifier.
func (h *HybridNetwork) Qualifier() *shape.Qualifier { return h.qualifier }

// Config returns the (normalised) configuration.
func (h *HybridNetwork) Config() Config { return h.cfg }

// newEngine builds a fresh reliable engine (ops + bucket) for one inference.
func (h *HybridNetwork) newEngine() (*reliable.Engine, error) {
	ops, err := h.cfg.Mode.NewOps(h.cfg.ALUs)
	if err != nil {
		return nil, err
	}
	bucket, err := reliable.NewLeakyBucket(h.cfg.BucketFactor, h.cfg.BucketCeiling)
	if err != nil {
		return nil, err
	}
	return reliable.NewEngine(ops, bucket)
}

// Classify runs the hybrid pipeline on a full-resolution CHW image with a
// fresh context and reliable engine. It is safe to call concurrently on a
// shared HybridNetwork; for batches prefer ClassifyBatch, which shares
// each worker's context and engine across the images of that batch.
func (h *HybridNetwork) Classify(img *tensor.Tensor) (Result, error) {
	engine, err := h.newEngine()
	if err != nil {
		return Result{}, err
	}
	return h.classify(nn.NewContext(), engine, img)
}

func (h *HybridNetwork) classify(ctx *nn.Context, engine *reliable.Engine, img *tensor.Tensor) (Result, error) {
	results := make([]Result, 1)
	if err := h.classifyChunk(ctx, engine, []*tensor.Tensor{img}, nil, results, &StageTimes{}); err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// classifyChunk classifies a sub-batch of images through one worker's
// context and reliable engine, writing one Result per image and adding the
// chunk's per-stage wall time into st (one goroutine owns a chunk end to
// end, so plain additions suffice). The pipeline splits into two stages:
//
//  1. Per image, full-pipeline images only: the reliable stage (edge
//     convolution or the DCNN prefix, whose overloaded MAC protocol is
//     inherently per-image) and the shape qualifier, with the leaky bucket
//     reset before every image and the work counters reported as per-image
//     deltas — the per-execution semantics of Classify.
//  2. Batched: pipes[i] == PipelineCNN images skip stage 1 and run the
//     non-reliable prefix (the layers the reliable stage would have
//     computed) batched; then every surviving image — full and fast alike
//     — coalesces into the SAME batched CNN continuation, one NCHW batch
//     per input shape, so a uniform chunk costs one GEMM per layer.
//
// nil pipes means PipelineFull for every image.
func (h *HybridNetwork) classifyChunk(ctx *nn.Context, engine *reliable.Engine, imgs []*tensor.Tensor, pipes []Pipeline, results []Result, st *StageTimes) error {
	if h.cfg.Wiring != WiringParallel && h.cfg.Wiring != WiringBifurcated {
		return fmt.Errorf("core: unknown wiring %d", int(h.cfg.Wiring))
	}
	if len(imgs) != len(results) {
		return fmt.Errorf("core: classify chunk has %d images for %d results", len(imgs), len(results))
	}
	if pipes != nil && len(pipes) != len(imgs) {
		return fmt.Errorf("core: classify chunk has %d pipelines for %d images", len(pipes), len(imgs))
	}
	// Stage 1: reliable execution + qualifier, per sample — full-pipeline
	// images only.
	cnnIns := make([]*tensor.Tensor, 0, len(imgs))
	idxs := make([]int, 0, len(imgs))
	fastIdxs := make([]int, 0)
	for i, img := range imgs {
		if pipes != nil && pipes[i] == PipelineCNN {
			fastIdxs = append(fastIdxs, i)
			continue
		}
		engine.Bucket().Reset()
		before := engine.Stats()
		qBefore := st.Qualifier
		stageStart := time.Now()
		cnnIn, err := h.reliableStage(engine, img, &results[i], st)
		// The qualifier ran inside reliableStage and booked its own time;
		// the reliable span is the remainder.
		st.Reliable += time.Since(stageStart) - (st.Qualifier - qBefore)
		// The engine accumulates across the chunk; report the per-inference
		// delta, matching Classify's fresh-engine counters.
		results[i].Stats.Sub(before)
		if err != nil {
			return err
		}
		if cnnIn != nil {
			cnnIns = append(cnnIns, cnnIn)
			idxs = append(idxs, i)
		}
	}
	// Stage 2: the CNN portion, batched. Fast images first run the
	// non-reliable prefix so they enter the continuation at the same layer
	// as the reliably computed feature maps; the prefix is CNN work and is
	// booked as such.
	cnnStart := time.Now()
	err := h.fastEntries(ctx, imgs, fastIdxs, &cnnIns, &idxs)
	if err == nil {
		err = h.cnnStage(ctx, cnnIns, idxs, results)
	}
	st.CNN += time.Since(cnnStart)
	return err
}

// fastEntries computes the CNN-stage entry tensor for every fast-pipeline
// image and appends them (with their result indices) to cnnIns/idxs.
// Parallel wiring: the (possibly downsampled) image itself — the CNN
// consumes the raw input. Bifurcated wiring: the image is run through the
// non-reliable prefix [0, DCNNDepth) so it arrives at the same layer as the
// reliable stage's output, one batched prefix pass per input shape.
func (h *HybridNetwork) fastEntries(ctx *nn.Context, imgs []*tensor.Tensor, fastIdxs []int, cnnIns *[]*tensor.Tensor, idxs *[]int) error {
	fast := make([]*tensor.Tensor, len(fastIdxs))
	for j, i := range fastIdxs {
		fast[j] = imgs[i]
		if h.cfg.Wiring == WiringParallel && h.cfg.DownsampleFactor > 1 {
			var err error
			if fast[j], err = BoxDownsample(imgs[i], h.cfg.DownsampleFactor); err != nil {
				return err
			}
		}
	}
	if h.cfg.Wiring == WiringParallel {
		*cnnIns = append(*cnnIns, fast...)
		*idxs = append(*idxs, fastIdxs...)
		return nil
	}
	for _, group := range tensor.GroupByShape(fast) {
		batch, err := tensor.StackAt(fast, group)
		if err != nil {
			return err
		}
		out, err := h.net.ForwardBatchRange(ctx, 0, h.cfg.DCNNDepth, batch)
		if err != nil {
			return fmt.Errorf("core: fast prefix: %w", err)
		}
		for j, k := range group {
			fm, err := out.Sample(j)
			if err != nil {
				return err
			}
			*cnnIns = append(*cnnIns, fm)
			*idxs = append(*idxs, fastIdxs[k])
		}
	}
	return nil
}

// reliableStage runs everything except the non-reliable CNN for one image:
// the reliably executed portion (parallel wiring: the Sobel edge stage;
// bifurcated wiring: the DCNN prefix) and, when execution succeeds, the
// shape qualifier. It fills res.Stats/Bucket/Qualifier and, on a bucket
// trip, res.Decision/ExecErr. It returns the tensor the CNN stage should
// consume: the (possibly downsampled) input image (parallel — returned even
// after an execution failure, whose Result still reports the CNN's opinion)
// or the reliably computed feature map (bifurcated; nil after a failure,
// because the CNN cannot run without it). Qualifier wall time is booked
// into st.Qualifier so the caller can split it out of the stage total.
func (h *HybridNetwork) reliableStage(engine *reliable.Engine, img *tensor.Tensor, res *Result, st *StageTimes) (*tensor.Tensor, error) {
	if h.cfg.Wiring == WiringParallel {
		// Deterministic saliency preprocessing: traffic-sign faces are
		// saturated, so the colourfulness channel separates the sign from
		// grey background and clutter. It is a bounded per-pixel min/max
		// with no accumulation — the class of operation the paper's
		// qualifier is allowed to treat as deterministically verifiable.
		saliency := img
		if img.Rank() == 3 && img.Dim(0) == 3 {
			col, err := shape.Colorfulness(img)
			if err != nil {
				return nil, err
			}
			saliency, err = col.Reshape(1, col.Dim(0), col.Dim(1))
			if err != nil {
				return nil, err
			}
		}
		// Reliable edge stage on the full-resolution saliency channel.
		edges, execErr := reliable.Conv2D(engine, saliency, h.sobelBank, nil,
			reliable.ConvSpec{Stride: 1, Pad: h.cfg.SobelKernel / 2})
		res.Stats = engine.Stats()
		res.Bucket = engine.Bucket().Snapshot()

		cnnIn := img
		if h.cfg.DownsampleFactor > 1 {
			var err error
			cnnIn, err = BoxDownsample(img, h.cfg.DownsampleFactor)
			if err != nil {
				return nil, err
			}
		}
		if execErr != nil {
			if errors.Is(execErr, reliable.ErrBucketTripped) {
				res.Decision = DecisionExecutionFailed
				res.ExecErr = execErr
				return cnnIn, nil
			}
			return nil, execErr
		}
		qStart := time.Now()
		mag, err := EdgeMagnitudeFromChannels(edges, SobelPair{XIdx: 0, YIdx: 1})
		if err != nil {
			return nil, err
		}
		qres, err := h.qualifier.QualifyEdgeMap(mag)
		st.Qualifier += time.Since(qStart)
		if err != nil {
			return nil, fmt.Errorf("core: qualifier: %w", err)
		}
		res.Qualifier = qres
		return cnnIn, nil
	}

	// Bifurcated wiring: conv1 executes reliably; its output feeds both the
	// qualifier (via the Sobel channels) and the rest of the CNN.
	features, execErr := reliable.Conv2D(engine, img, h.conv1.Weight(), h.conv1.Bias().Data(),
		reliable.ConvSpec{Stride: h.conv1.Stride(), Pad: h.conv1.Pad()})
	res.Stats = engine.Stats()
	res.Bucket = engine.Bucket().Snapshot()
	if execErr != nil {
		if errors.Is(execErr, reliable.ErrBucketTripped) {
			res.Decision = DecisionExecutionFailed
			res.ExecErr = execErr
			return nil, nil
		}
		return nil, execErr
	}

	// Continue the reliable prefix beyond conv1 if configured (the
	// generalised DCNN), then hand over to the non-reliable CNN.
	tail := features
	if h.cfg.DCNNDepth > 1 {
		tail, execErr = ExecutePrefixFrom(engine, h.net, 1, h.cfg.DCNNDepth, features)
		res.Stats = engine.Stats()
		res.Bucket = engine.Bucket().Snapshot()
		if execErr != nil {
			if errors.Is(execErr, reliable.ErrBucketTripped) {
				res.Decision = DecisionExecutionFailed
				res.ExecErr = execErr
				return nil, nil
			}
			return nil, execErr
		}
	}

	// Qualifier path: edge magnitude from the reliably computed Sobel
	// channels of the SAME feature map the CNN consumes.
	qStart := time.Now()
	mag, err := EdgeMagnitudeFromChannels(features, h.cfg.Pair)
	if err != nil {
		return nil, err
	}
	qres, err := h.qualifier.QualifyEdgeMap(mag)
	st.Qualifier += time.Since(qStart)
	if err != nil {
		return nil, fmt.Errorf("core: qualifier: %w", err)
	}
	res.Qualifier = qres
	return tail, nil
}

// cnnStage runs the non-reliable CNN portion over the surviving images of a
// chunk — idxs[j] is the position of cnnIns[j] in results — filling
// class/confidence/probs and the Reliable Result decision. The inputs pack
// into one NCHW batch per shape (a lone image is an N=1 view), one GEMM per
// layer per batch.
func (h *HybridNetwork) cnnStage(ctx *nn.Context, cnnIns []*tensor.Tensor, idxs []int, results []Result) error {
	from := 0
	if h.cfg.Wiring == WiringBifurcated {
		from = h.cfg.DCNNDepth
	}
	for _, group := range tensor.GroupByShape(cnnIns) {
		batch, err := tensor.StackAt(cnnIns, group)
		if err != nil {
			return err
		}
		blogits, err := h.net.ForwardBatchFrom(ctx, from, batch)
		if err != nil {
			return fmt.Errorf("core: CNN path: %w", err)
		}
		for j, k := range group {
			logits, err := blogits.Sample(j)
			if err != nil {
				return err
			}
			if err := h.finishResult(logits, &results[idxs[k]]); err != nil {
				return err
			}
		}
	}
	return nil
}

// finishResult turns one logits row into class/confidence/probs and, unless
// the reliable stage already ruled (execution failure), the decision.
func (h *HybridNetwork) finishResult(logits *tensor.Tensor, res *Result) error {
	probs, class, err := nn.SoftmaxArgmax(logits)
	if err != nil {
		return err
	}
	res.Probs, res.Class, res.Confidence = probs, class, probs[class]
	if res.Decision != DecisionExecutionFailed {
		h.decide(res)
	}
	return nil
}

// ClassifyBatch classifies every image through a worker pool (workers <= 0
// defaults to GOMAXPROCS), returning results in input order. The CNN's
// weights are shared across workers; each worker owns its forward context
// and reliable engine, whose leaky bucket is reset between images so every
// inference gets the per-execution error-counter semantics of Classify.
// The pool is built per call; long-lived callers (serving layers) should
// hold a BatchClassifier instead.
func (h *HybridNetwork) ClassifyBatch(imgs []*tensor.Tensor, workers int) ([]Result, error) {
	c, err := h.NewBatchClassifier(workers)
	if err != nil {
		return nil, err
	}
	results, _, err := c.ClassifyBatch(imgs, nil)
	return results, err
}

// decide implements the Reliable Result block.
func (h *HybridNetwork) decide(res *Result) {
	required, critical := h.cfg.SafetyClasses[res.Class]
	if !critical {
		res.Decision = DecisionNotSafetyRelevant
		return
	}
	if res.Qualifier.Class == required {
		res.Decision = DecisionQualified
		return
	}
	res.Decision = DecisionRejected
}
