package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/serve"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// serveLayers derives the per-layer metrics of a traced serve run: the
// scheduler's stage times from each request's Timing, the decode time, and
// a replay of served batches through the public stage functions.
func serveLayers(env *env, o *outcome, all []served, imgs []*tensor.Tensor, rig *serveRig, rec *recorder) error {
	var queue, fill, backend, decodes []float64
	batches := make(map[int64][]served) // keyed by dispatch instant: one flush
	var shed int
	for _, s := range all {
		if errors.Is(s.err, serve.ErrQueueFull) {
			shed++
		}
		if !s.ok {
			continue
		}
		decodes = append(decodes, float64(s.decode)/float64(time.Microsecond))
		queue = append(queue, ms(s.tm.Picked.Sub(s.tm.Enqueued)))
		fill = append(fill, ms(s.tm.Dispatched.Sub(s.tm.Picked)))
		backend = append(backend, ms(s.tm.Done.Sub(s.tm.Dispatched)))
		key := s.tm.Dispatched.UnixNano()
		batches[key] = append(batches[key], s)
	}
	keys := make([]int64, 0, len(batches))
	var sizes, eff []float64
	for k, b := range batches {
		keys = append(keys, k)
		tm := b[0].tm
		sizes = append(sizes, float64(tm.BatchSize))
		busy := tm.Stages.Reliable + tm.Stages.Qualifier + tm.Stages.CNN
		if wall := tm.Done.Sub(tm.Dispatched); wall > 0 {
			eff = append(eff, float64(busy)/float64(wall*time.Duration(env.workers)))
		}
	}
	slices.Sort(keys)
	o.layers["serve.queue_wait_ms_p50"] = quantile(queue, 0.5)
	o.layers["serve.queue_wait_ms_p90"] = quantile(queue, 0.9)
	o.layers["serve.batch_fill_ms_p50"] = quantile(fill, 0.5)
	o.layers["serve.backend_ms_p50"] = quantile(backend, 0.5)
	o.layers["serve.batch_size_mean"] = mean(sizes)
	o.layers["serve.shed_count"] = float64(shed)
	o.layers["infer.parallel_efficiency"] = median(eff)
	o.layers["gtsrb.decode_us_p50"] = median(decodes)

	// Replay evenly spaced served batches, whole: a batch is only
	// comparable with serve.backend_ms_p50 at the size it was served at.
	var replay [][]served
	stride := max(1, len(keys)/env.cfg.ReplayBatches)
	for i := 0; i < len(keys) && len(replay) < env.cfg.ReplayBatches; i += stride {
		replay = append(replay, batches[keys[i]])
	}
	rp := newReplayer(rig.h)
	for n, b := range replay {
		batch := make([]*tensor.Tensor, len(b))
		for i, s := range b {
			batch[i] = imgs[s.idx]
		}
		results, err := rp.batch(batch, env.workers, rec, int64(n+1)<<40)
		if err != nil {
			return err
		}
		for i, r := range results {
			if !sameReplay(r, b[i]) {
				o.mismatches++
				o.failed++
			}
		}
	}
	lt := rec.layers()
	var imgsReplayed float64
	for _, b := range replay {
		imgsReplayed += float64(len(b))
	}
	o.layers["nn.cnn_ms_per_img"] = perImg(lt["nn.cnn"], imgsReplayed)
	for i := rp.from; i < rp.net.Len(); i++ {
		name := "nn." + rp.names[i]
		o.layers[name+"_ms_per_img"] = perImg(lt[name], imgsReplayed)
	}
	o.layers["nn.cnn_mflop_per_img"] = rp.flops / 1e6
	if rp.layerMismatch > 0 {
		o.mismatches += rp.layerMismatch
		o.failed += rp.layerMismatch
	}
	o.layers["trace.replay_batch_ms_p50"] = median(lt["replay.batch"].durs())
	o.layers["reliable.conv1_ms_per_img"] = median(lt["reliable.conv1"].durs())
	o.layers["reliable.ns_per_op"] = float64(lt["reliable.conv1"].total()) / float64(max(rp.ops, 1))
	o.layers["shape.qualify_ms_per_img"] = median(lt["shape.qualify"].durs())
	rel, qual, cnn := lt["reliable.conv1"].self(), lt["shape.qualify"].self(), lt["nn.cnn"].self()
	o.layers["trace.reliable_share"] = float64(rel) / float64(rel+qual+cnn)

	var ops, retries, trips float64
	var n int
	for _, s := range all {
		if s.ok {
			n++
			ops += float64(s.stats.Ops)
			retries += float64(s.stats.Retries)
			if s.tripped {
				trips++
			}
		}
	}
	o.layers["reliable.ops_per_img"] = ops / float64(max(n, 1))
	o.layers["reliable.retries"] = retries
	o.layers["reliable.bucket_trips"] = trips
	return modeProbe(o, rig.h, imgs[:env.cfg.ModeProbeImages], rec)
}

func perImg(lt *layerTime, imgs float64) float64 {
	if lt == nil || imgs == 0 {
		return 0
	}
	return ms(lt.Total) / imgs
}

func (lt *layerTime) durs() []float64 {
	if lt == nil {
		return nil
	}
	return lt.Durs
}

func (lt *layerTime) total() time.Duration {
	if lt == nil {
		return 0
	}
	return lt.Total
}

func (lt *layerTime) self() time.Duration {
	if lt == nil {
		return 0
	}
	return lt.Self
}

// replayer re-runs the backend stages of the hybrid pipeline through the
// public per-stage functions — reliable.Conv2D, the edge magnitude and
// shape qualifier, and nn.Sequential range calls — splitting a batch
// across workers the way the classifier pool does (⌈batch/workers⌉ images
// per worker), so each stage gets its own span.
type replayer struct {
	h     *core.HybridNetwork
	net   *nn.Sequential
	conv1 *nn.Conv2D
	from  int // first CNN-stage layer
	names []string

	mu            sync.Mutex
	ops           uint64  // reliable ops replayed
	flops         float64 // CNN-stage FLOPs per image, from the layer shapes
	layerMismatch int     // per-layer chain disagreed with the whole CNN stage
}

func newReplayer(h *core.HybridNetwork) *replayer {
	conv1, _ := nn.FirstConv(h.Net()) // the hybrid network was built around it
	rp := &replayer{h: h, net: h.Net(), conv1: conv1, from: h.Config().DCNNDepth}
	for i := range rp.net.Len() {
		l, _ := rp.net.Layer(i)
		rp.names = append(rp.names, l.Name())
	}
	return rp
}

// replayResult is one replayed verdict.
type replayResult struct {
	class  int
	probs  []float32
	qclass shape.Class
}

// batch replays imgs and returns one verdict per image. The per-layer
// chain runs after the timed batch, so it does not inflate replay.batch.
func (rp *replayer) batch(imgs []*tensor.Tensor, workers int, rec *recorder, req int64) ([]replayResult, error) {
	out := make([]replayResult, len(imgs))
	chunk := (len(imgs) + workers - 1) / workers
	type job struct{ lo, hi int }
	var jobs []job
	for lo := 0; lo < len(imgs); lo += chunk {
		jobs = append(jobs, job{lo, min(lo+chunk, len(imgs))})
	}
	root := rec.id()
	start := time.Now()
	entries := make([]*tensor.Tensor, len(imgs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for j, jb := range jobs {
		go func() {
			defer wg.Done()
			errs[j] = rp.chunk(imgs[jb.lo:jb.hi], entries[jb.lo:jb.hi], out[jb.lo:jb.hi], rec, root, req)
		}()
	}
	wg.Wait()
	rec.add(root, 0, req, "replay.batch", start, time.Now())
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	layersRoot := rec.id()
	lstart := time.Now()
	for _, jb := range jobs {
		if err := rp.layerChain(entries[jb.lo:jb.hi], out[jb.lo:jb.hi], rec, layersRoot, req); err != nil {
			return nil, err
		}
	}
	rec.add(layersRoot, 0, req, "nn.layers", lstart, time.Now())
	return out, nil
}

// chunk runs one worker's share: per image the reliable conv1 and the
// qualifier, then the CNN stage as one batched pass.
func (rp *replayer) chunk(imgs, entries []*tensor.Tensor, out []replayResult, rec *recorder, parent, req int64) error {
	id := rec.id()
	start := time.Now()
	ctx := nn.NewContext()
	engine, err := newEngine(rp.h.Config(), rp.h.Config().Mode)
	if err != nil {
		return err
	}
	for i, img := range imgs {
		engine.Bucket().Reset()
		before := engine.Stats().Ops
		t0 := time.Now()
		feat, err := reliable.Conv2D(engine, img, rp.conv1.Weight(), rp.conv1.Bias().Data(),
			reliable.ConvSpec{Stride: rp.conv1.Stride(), Pad: rp.conv1.Pad()})
		t1 := time.Now()
		rec.child(id, req, "reliable.conv1", t0, t1)
		if err != nil {
			return fmt.Errorf("replay reliable conv1: %w", err)
		}
		rp.mu.Lock()
		rp.ops += engine.Stats().Ops - before
		rp.mu.Unlock()
		mag, err := core.EdgeMagnitudeFromChannels(feat, rp.h.Config().Pair)
		if err != nil {
			return err
		}
		q, err := rp.h.Qualifier().QualifyEdgeMap(mag)
		rec.child(id, req, "shape.qualify", t1, time.Now())
		if err != nil {
			return fmt.Errorf("replay qualifier: %w", err)
		}
		out[i].qclass = q.Class
		entries[i] = feat
	}
	t0 := time.Now()
	batch, err := tensor.Stack(entries)
	if err != nil {
		return err
	}
	logits, err := rp.net.ForwardBatchFrom(ctx, rp.from, batch)
	rec.child(id, req, "nn.cnn", t0, time.Now())
	if err != nil {
		return fmt.Errorf("replay CNN stage: %w", err)
	}
	for i := range imgs {
		row, err := logits.Sample(i)
		if err != nil {
			return err
		}
		if out[i].probs, out[i].class, err = nn.SoftmaxArgmax(row); err != nil {
			return err
		}
	}
	rec.add(id, parent, req, "infer.chunk", start, time.Now())
	return nil
}

// layerChain runs a chunk's CNN stage one layer at a time and checks that
// the chain ends in the same logits as the whole-stage pass.
func (rp *replayer) layerChain(entries []*tensor.Tensor, out []replayResult, rec *recorder, parent, req int64) error {
	ctx := nn.NewContext()
	x, err := tensor.Stack(entries)
	if err != nil {
		return err
	}
	var flops float64
	for i := rp.from; i < rp.net.Len(); i++ {
		t0 := time.Now()
		y, err := rp.net.ForwardBatchRange(ctx, i, i+1, x)
		rec.child(parent, req, "nn."+rp.names[i], t0, time.Now())
		if err != nil {
			return err
		}
		flops += layerFLOPs(rp.net, i, y)
		x = y
	}
	rp.flops = flops
	for i := range out {
		row, err := x.Sample(i)
		if err != nil {
			return err
		}
		probs, class, err := nn.SoftmaxArgmax(row)
		if err != nil {
			return err
		}
		if class != out[i].class || !sameBits(probs, out[i].probs) {
			rp.layerMismatch++
		}
	}
	return nil
}

// layerFLOPs is the multiply-add work per image of layer i given its batch
// output: 2·weights·output pixels for a convolution, 2·weights for a dense
// layer, and nothing for the element-wise and pooling layers.
func layerFLOPs(net *nn.Sequential, i int, out *tensor.Tensor) float64 {
	l, _ := net.Layer(i)
	switch l := l.(type) {
	case *nn.Conv2D:
		return 2 * float64(l.Weight().Len()) * float64(out.Dim(2)*out.Dim(3))
	case *nn.Dense:
		return 2 * float64(l.Weight().Len())
	}
	return 0
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// sameReplay reports whether a replayed verdict equals the served one.
func sameReplay(r replayResult, s served) bool {
	return r.class == s.class && sameBits(r.probs, s.probs) && r.qclass == s.qclass
}

// newEngine builds a reliable engine for mode with the network's bucket.
func newEngine(cfg core.Config, mode core.RedundancyMode) (*reliable.Engine, error) {
	ops, err := mode.NewOps(cfg.ALUs)
	if err != nil {
		return nil, err
	}
	bucket, err := reliable.NewLeakyBucket(cfg.BucketFactor, cfg.BucketCeiling)
	if err != nil {
		return nil, err
	}
	return reliable.NewEngine(ops, bucket)
}

// redundancyModes are the four execution modes of the paper, in the order
// campaign trials cycle through them.
var redundancyModes = []core.RedundancyMode{core.ModePlain, core.ModeTemporalDMR, core.ModeSpatialDMR, core.ModeTMR}

// modeProbe times reliable conv1 under each redundancy mode's Ops and
// checks that every mode computes the configured mode's feature maps.
func modeProbe(o *outcome, h *core.HybridNetwork, imgs []*tensor.Tensor, rec *recorder) error {
	conv1, _ := nn.FirstConv(h.Net())
	spec := reliable.ConvSpec{Stride: conv1.Stride(), Pad: conv1.Pad()}
	feats := make(map[core.RedundancyMode][]*tensor.Tensor)
	for _, mode := range redundancyModes {
		engine, err := newEngine(h.Config(), mode)
		if err != nil {
			return err
		}
		root := rec.id()
		start := time.Now()
		var elapsed time.Duration
		for _, img := range imgs {
			engine.Bucket().Reset()
			t0 := time.Now()
			feat, err := reliable.Conv2D(engine, img, conv1.Weight(), conv1.Bias().Data(), spec)
			t1 := time.Now()
			elapsed += t1.Sub(t0)
			rec.child(root, 0, "reliable."+mode.String(), t0, t1)
			if err != nil {
				return fmt.Errorf("mode probe %v: %w", mode, err)
			}
			feats[mode] = append(feats[mode], feat)
		}
		rec.add(root, 0, 0, "reliable.mode_probe", start, time.Now())
		o.layers["reliable."+mode.String()+".ns_per_op"] = float64(elapsed) / float64(max(engine.Stats().Ops, 1))
	}
	want := feats[h.Config().Mode]
	for _, mode := range redundancyModes {
		for i, f := range feats[mode] {
			if !sameBits(f.Data(), want[i].Data()) {
				o.mismatches++
				o.failed++
			}
		}
	}
	return nil
}
