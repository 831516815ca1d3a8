package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestClassifyBatchMatchesSerial: pooled hybrid classification must agree
// with per-call Classify — classes, decisions, qualifier verdicts AND the
// per-inference reliable-work counters — for both wirings and any worker
// count. Run with -race this exercises concurrent shared-weight hybrid
// inference end to end.
func TestClassifyBatchMatchesSerial(t *testing.T) {
	net := trainedMicroNet(t)
	for _, wiring := range []Wiring{WiringParallel, WiringBifurcated} {
		cfg := Config{
			Wiring: wiring, Mode: ModeTemporalDMR,
			SafetyClasses: defaultSafety(),
		}
		imgSize := 32
		if wiring == WiringParallel {
			cfg.DownsampleFactor = 3
			imgSize = 96
		} else {
			conv1, err := nn.FirstConv(net)
			if err != nil {
				t.Fatal(err)
			}
			pair, err := InstallSobelPair(conv1, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Pair = pair
		}
		h, err := NewHybridNetwork(cfg, net)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(91))
		gcfg, err := gtsrb.Config{Size: imgSize}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		imgs := make([]*tensor.Tensor, 9)
		for i := range imgs {
			spec := gtsrb.StandardClasses()[i%len(gtsrb.StandardClasses())]
			img, err := gtsrb.Render(gtsrb.RandomParams(gcfg, spec, rng), rng)
			if err != nil {
				t.Fatal(err)
			}
			imgs[i] = img
		}

		want := make([]Result, len(imgs))
		for i, img := range imgs {
			res, err := h.Classify(img)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}

		for _, workers := range []int{1, 4} {
			got, err := h.ClassifyBatch(imgs, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("wiring=%v workers=%d: %d results", wiring, workers, len(got))
			}
			for i := range got {
				if got[i].Class != want[i].Class || got[i].Decision != want[i].Decision ||
					got[i].Qualifier.Class != want[i].Qualifier.Class {
					t.Errorf("wiring=%v workers=%d img %d: (%d,%v,%v) != serial (%d,%v,%v)",
						wiring, workers, i,
						got[i].Class, got[i].Decision, got[i].Qualifier.Class,
						want[i].Class, want[i].Decision, want[i].Qualifier.Class)
				}
				if got[i].Stats != want[i].Stats {
					t.Errorf("wiring=%v workers=%d img %d: stats %+v != serial %+v",
						wiring, workers, i, got[i].Stats, want[i].Stats)
				}
			}
		}
	}
}

// TestBatchClassifierReuse: one persistent pool serves many batches —
// including overlapping batches from concurrent goroutines, which serialize
// through the engine's exclusive entry point — and every result matches the
// fresh-engine Classify path. Run with -race this is the serving-layer gate.
func TestBatchClassifierReuse(t *testing.T) {
	net := trainedMicroNet(t)
	conv1, err := nn.FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := InstallSobelPair(conv1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHybridNetwork(Config{
		Wiring: WiringBifurcated, Mode: ModeTemporalDMR,
		Pair: pair, SafetyClasses: defaultSafety(),
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	gcfg, err := gtsrb.Config{Size: 32}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*tensor.Tensor, 6)
	want := make([]Result, len(imgs))
	for i := range imgs {
		spec := gtsrb.StandardClasses()[i%len(gtsrb.StandardClasses())]
		img, err := gtsrb.Render(gtsrb.RandomParams(gcfg, spec, rng), rng)
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = img
		res, err := h.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	c, err := h.NewBatchClassifier(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 2 {
		t.Fatalf("workers = %d", c.Workers())
	}
	const rounds = 4
	var wg sync.WaitGroup
	wg.Add(rounds)
	errs := make(chan error, rounds)
	for r := 0; r < rounds; r++ {
		go func() {
			defer wg.Done()
			got, _, err := c.ClassifyBatch(imgs, nil)
			if err != nil {
				errs <- err
				return
			}
			for i := range got {
				if got[i].Class != want[i].Class || got[i].Decision != want[i].Decision ||
					got[i].Stats != want[i].Stats {
					errs <- fmt.Errorf("img %d: (%d,%v,%+v) != serial (%d,%v,%+v)",
						i, got[i].Class, got[i].Decision, got[i].Stats,
						want[i].Class, want[i].Decision, want[i].Stats)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestClassifyBatchSubBatchEquivalence: the batched CNN stage — one NCHW
// batch per worker sub-batch — must reproduce per-call Classify (an N=1
// batch) bit-for-bit in classes, probabilities, decisions, qualifier
// verdicts and per-inference reliable counters, for every sub-batch size
// (1 runs N=1 batches; sizes ragged against the batch exercise the tail
// chunks).
// Run with -race this is the golden-equivalence gate of the serving path.
func TestClassifyBatchSubBatchEquivalence(t *testing.T) {
	net := trainedMicroNet(t)
	for _, wiring := range []Wiring{WiringParallel, WiringBifurcated} {
		cfg := Config{
			Wiring: wiring, Mode: ModeTemporalDMR,
			SafetyClasses: defaultSafety(),
		}
		imgSize := 32
		if wiring == WiringParallel {
			cfg.DownsampleFactor = 3
			imgSize = 96
		} else {
			conv1, err := nn.FirstConv(net)
			if err != nil {
				t.Fatal(err)
			}
			pair, err := InstallSobelPair(conv1, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Pair = pair
		}
		h, err := NewHybridNetwork(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(93))
		gcfg, err := gtsrb.Config{Size: imgSize}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		imgs := make([]*tensor.Tensor, 11)
		want := make([]Result, len(imgs))
		for i := range imgs {
			spec := gtsrb.StandardClasses()[i%len(gtsrb.StandardClasses())]
			img, err := gtsrb.Render(gtsrb.RandomParams(gcfg, spec, rng), rng)
			if err != nil {
				t.Fatal(err)
			}
			imgs[i] = img
			res, err := h.Classify(img)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		for _, ccfg := range []ClassifierConfig{
			{Workers: 1},              // whole batch in one sub-batch
			{Workers: 3},              // default ceil(11/3)=4 → ragged tail of 3
			{Workers: 2, SubBatch: 1}, // N=1 sub-batches
			{Workers: 2, SubBatch: 4}, // explicit cap, ragged
		} {
			c, err := h.NewBatchClassifierConfig(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			if ccfg.SubBatch != 0 && c.SubBatch() != ccfg.SubBatch {
				t.Fatalf("sub-batch = %d, want %d", c.SubBatch(), ccfg.SubBatch)
			}
			got, _, err := c.ClassifyBatch(imgs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i].Class != want[i].Class || got[i].Decision != want[i].Decision ||
					got[i].Qualifier.Class != want[i].Qualifier.Class ||
					got[i].Confidence != want[i].Confidence {
					t.Errorf("wiring=%v cfg=%+v img %d: (%d,%v,%v,%v) != serial (%d,%v,%v,%v)",
						wiring, ccfg, i,
						got[i].Class, got[i].Decision, got[i].Qualifier.Class, got[i].Confidence,
						want[i].Class, want[i].Decision, want[i].Qualifier.Class, want[i].Confidence)
				}
				if got[i].Stats != want[i].Stats {
					t.Errorf("wiring=%v cfg=%+v img %d: stats %+v != serial %+v",
						wiring, ccfg, i, got[i].Stats, want[i].Stats)
				}
				for cls := range got[i].Probs {
					if got[i].Probs[cls] != want[i].Probs[cls] {
						t.Errorf("wiring=%v cfg=%+v img %d: probs[%d] %v != %v",
							wiring, ccfg, i, cls, got[i].Probs[cls], want[i].Probs[cls])
					}
				}
			}
		}
	}
}

func TestClassifyBatchEmpty(t *testing.T) {
	net := trainedMicroNet(t)
	h, err := NewHybridNetwork(Config{
		Wiring: WiringParallel, Mode: ModeTemporalDMR,
		SafetyClasses: defaultSafety(), DownsampleFactor: 3,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.ClassifyBatch(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty batch returned %d results", len(res))
	}
}

// TestClassifyBatchMixedShapes: a sub-batch whose images disagree in shape
// runs its CNN stage (and the fast images' prefix) as one batch per shape,
// so every result — full and fast riders alike — equals classifying its
// shape group alone, bit for bit, and full riders equal Classify.
func TestClassifyBatchMixedShapes(t *testing.T) {
	// conv+flatten accepts any input size, so two image sizes can share a
	// sub-batch all the way through the CNN.
	rng := rand.New(rand.NewSource(95))
	conv1, err := nn.NewConv2D("conv1", 3, 4, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewSequential("convnet", conv1, nn.NewReLU("relu1"), nn.NewFlatten("flatten"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := InstallSobelPair(conv1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHybridNetwork(Config{
		Wiring: WiringBifurcated, Mode: ModeTemporalDMR, Pair: pair,
		SafetyClasses: defaultSafety(),
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	var imgs []*tensor.Tensor
	for i, size := range []int{32, 24, 32, 24, 24, 32} {
		gcfg, err := gtsrb.Config{Size: size}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		spec := gtsrb.StandardClasses()[i%len(gtsrb.StandardClasses())]
		img, err := gtsrb.Render(gtsrb.RandomParams(gcfg, spec, rng), rng)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	pipes := []Pipeline{PipelineFull, PipelineFull, PipelineCNN, PipelineCNN, PipelineFull, PipelineFull}
	c, err := h.NewBatchClassifier(1) // one sub-batch holding both shapes
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.ClassifyBatch(imgs, pipes)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, len(imgs))
	for _, group := range tensor.GroupByShape(imgs) {
		gImgs := make([]*tensor.Tensor, len(group))
		gPipes := make([]Pipeline, len(group))
		for j, i := range group {
			gImgs[j], gPipes[j] = imgs[i], pipes[i]
		}
		res, _, err := c.ClassifyBatch(gImgs, gPipes)
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range group {
			want[i] = res[j]
		}
	}
	for i := range imgs {
		alone := want[i]
		if pipes[i] == PipelineFull {
			if alone, err = h.Classify(imgs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, ref := range []Result{want[i], alone} {
			if got[i].Class != ref.Class || got[i].Decision != ref.Decision ||
				got[i].Stats != ref.Stats || len(got[i].Probs) != len(ref.Probs) {
				t.Fatalf("img %d: (%d,%v,%+v) != reference (%d,%v,%+v)", i,
					got[i].Class, got[i].Decision, got[i].Stats, ref.Class, ref.Decision, ref.Stats)
			}
			for k, p := range got[i].Probs {
				if math.Float32bits(p) != math.Float32bits(ref.Probs[k]) {
					t.Fatalf("img %d prob[%d]: %v mixed, %v alone", i, k, p, ref.Probs[k])
				}
			}
		}
	}
}
