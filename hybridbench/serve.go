package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/reliable"
	"repro/internal/serve"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// served is one request the benchmark sent to the scheduler. It keeps only
// the parts of the verdict the trace replay compares, so the benchmark's
// own bookkeeping stays small next to the memory it measures.
type served struct {
	idx    int // input index
	send   time.Time
	done   time.Time
	tm     serve.Timing
	err    error
	ok     bool // err == nil and the verdict matched its reference
	decode time.Duration

	class   int
	probs   []float32
	qclass  shape.Class
	stats   reliable.Stats
	tripped bool
}

// serveRig is the served pipeline: the demo hybrid network behind a
// BatchClassifier pool behind the micro-batching scheduler, set up with the
// hybridnetd defaults. Every request is guaranteed-class, so it runs the
// reliable conv1, the qualifier and the batched CNN.
type serveRig struct {
	h      *core.HybridNetwork
	sched  *serve.Scheduler
	setups []float64 // build times, in seconds
}

// newServeRig builds the pipeline reps times, timing each build through
// its first warm-up verdict, and keeps the last.
func newServeRig(env *env, warm *tensor.Tensor, reps int) (*serveRig, error) {
	rig := &serveRig{}
	build := func() error {
		h, _, err := cli.DemoHybrid(env.cfg.ImageSize, env.cfg.Conv1Filters, env.seed)
		if err != nil {
			return err
		}
		bc, err := h.NewBatchClassifier(env.workers)
		if err != nil {
			return err
		}
		sched, err := serve.New(bc, serve.Config{
			MaxBatch:  env.cfg.MaxBatch,
			MaxDelay:  time.Duration(env.cfg.MaxDelayMS * float64(time.Millisecond)),
			QueueSize: env.cfg.Queue,
		})
		if err != nil {
			return err
		}
		rig.h, rig.sched = h, sched
		if _, err := sched.SubmitClass(context.Background(), warm, serve.ClassGuaranteed); err != nil {
			return fmt.Errorf("warm-up verdict: %w", err)
		}
		return nil
	}
	discard := func() error { return rig.sched.Shutdown(context.Background()) }
	var err error
	rig.setups, err = env.timeSetups(reps, build, discard)
	return rig, err
}

// submit decodes input idx, sends it and checks the verdict
// against ref, tracing the decode and the scheduler stages when rec is
// non-nil.
func (rig *serveRig) submit(env *env, ins []input, idx int, ref core.Result, rec *recorder, req int64) served {
	root := rec.id()
	t0 := time.Now()
	s := served{idx: idx, send: t0}
	img, err := decode(ins[idx])
	t1 := time.Now()
	s.decode = t1.Sub(t0)
	rec.child(root, req, "gtsrb.decode", t0, t1)
	if err != nil {
		s.err, s.done = err, t1
		return s
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(env.cfg.RequestTimeoutMS)*time.Millisecond)
	defer cancel()
	var res core.Result
	if rec == nil {
		res, s.err = rig.sched.SubmitClass(ctx, img, serve.ClassGuaranteed)
	} else {
		res, s.tm, s.err = rig.sched.SubmitTraced(ctx, img, serve.ClassGuaranteed)
	}
	s.done = time.Now()
	s.ok = s.err == nil && sameVerdict(res, ref)
	s.class, s.probs, s.qclass = res.Class, res.Probs, res.Qualifier.Class
	s.stats, s.tripped = res.Stats, res.Bucket.Tripped
	if rec != nil {
		sub := rec.id()
		if s.err == nil {
			rec.child(sub, req, "serve.queue", s.tm.Enqueued, s.tm.Picked)
			rec.child(sub, req, "serve.batch_fill", s.tm.Picked, s.tm.Dispatched)
			rec.child(sub, req, "serve.backend", s.tm.Dispatched, s.tm.Done)
		}
		rec.add(sub, root, req, "serve.submit", t1, s.done)
		rec.add(root, 0, req, "request", t0, s.done)
	}
	return s
}

func (rig *serveRig) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return rig.sched.Shutdown(ctx)
}

// serveFull is the paper's path, a closed loop of 2×MaxBatch callers,
// like cameras each waiting on a safety verdict: every caller decodes a
// PNG, submits it and sends its next frame when the verdict returns. Each
// verdict is checked bit for bit against HybridNetwork.Classify on the
// same image.
func serveFull(env *env, dur time.Duration, rec *recorder) (*outcome, error) {
	ins, imgs, err := env.serveInputs()
	if err != nil {
		return nil, err
	}
	before, after := env.setupReps()
	rig, err := newServeRig(env, imgs[0], before)
	if err != nil {
		return nil, err
	}
	refs, err := fullReferences(rig.h, imgs)
	if err != nil {
		return nil, err
	}

	callers := 2 * env.cfg.MaxBatch
	results := make([][]served, callers)
	start := time.Now()
	end := start.Add(dur)
	var mw memWindow
	mw.start()
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := range callers {
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(env.seed*7919 + int64(c)))
			for n := 0; time.Now().Before(end); n++ {
				idx := rng.Intn(len(ins))
				s := rig.submit(env, ins, idx, refs[idx], rec, int64(c)<<32|int64(n))
				results[c] = append(results[c], s)
			}
		}()
	}
	wg.Wait()
	mw.stop()
	if err := rig.shutdown(); err != nil {
		return nil, err
	}
	var all []served
	for _, r := range results {
		all = append(all, r...)
	}
	o := serveOutcome(env, all, start, end)
	o.mem = mw
	if rec != nil {
		if err := serveLayers(env, o, all, imgs, rig, rec); err != nil {
			return nil, err
		}
	}
	late, err := newServeRig(env, imgs[0], after)
	if err != nil {
		return nil, err
	}
	if err := late.shutdown(); err != nil {
		return nil, err
	}
	setups := append(rig.setups, late.setups...)
	o.set("setup_s", median(setups), len(setups))
	return o, nil
}

// serveOutcome turns the requests into the end-to-end metrics: the window
// excludes the warm-up, and latency runs from send time (before the PNG
// decode) to verdict.
func serveOutcome(env *env, all []served, start, end time.Time) *outcome {
	o := newOutcome()
	from := start.Add(env.warmup(end.Sub(start)))
	var lat []sample
	var done []time.Time
	for _, s := range all {
		o.attempted++
		if !s.ok {
			o.failed++
			if s.err == nil {
				o.mismatches++
			} else {
				o.errs = append(o.errs, s.err)
			}
			continue
		}
		done = append(done, s.done)
		lat = append(lat, sample{s.send, ms(s.done.Sub(s.send))})
	}
	n := env.cfg.Slices
	o.set("throughput_per_s", env.overSlices(sliceRates(done, from, end, n)), len(done))
	o.set("latency_p50_ms", env.overSlices(sliceQuantiles(lat, from, end, n, 0.5)), len(lat))
	o.set("latency_p90_ms", env.overSlices(sliceQuantiles(lat, from, end, n, 0.9)), len(lat))
	o.ops = len(done)
	return o
}
