package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/tensor"
)

// TestClassifyBatchPipelinedEquivalence is the service-class pinning test:
//
//   - Full-pipeline riders of a mixed batch must be bit-identical to the
//     nil-pipes path every request took before service classes existed —
//     class, decision, qualifier, reliable-work counters AND every softmax
//     probability. Mixing fast riders into the batch changes the CNN
//     continuation's batch width, and the GEMM kernels are batch-width
//     independent, so nothing may move.
//   - Fast (CNN-only) riders must be bit-identical to the all-CNN batched
//     pipeline, must agree with an independent whole-net forward of the
//     (downsampled) image, and must carry the degraded contract: zero
//     qualifier, zero reliable-work counters, and DecisionRejected for
//     safety-critical argmax classes (no qualifier ran, so the reliable
//     guarantee cannot be claimed).
func TestClassifyBatchPipelinedEquivalence(t *testing.T) {
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

		rng := rand.New(rand.NewSource(23))
		gcfg, err := gtsrb.Config{Size: imgSize}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		imgs := make([]*tensor.Tensor, 8)
		for i := range imgs {
			spec := gtsrb.StandardClasses()[i%len(gtsrb.StandardClasses())]
			img, err := gtsrb.Render(gtsrb.RandomParams(gcfg, spec, rng), rng)
			if err != nil {
				t.Fatal(err)
			}
			imgs[i] = img
		}

		c, err := h.NewBatchClassifier(1)
		if err != nil {
			t.Fatal(err)
		}
		// The pre-class path: nil pipes, every image full pipeline.
		wantFull, _, err := c.ClassifyBatch(imgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The degraded/fast path: every image batched CNN only.
		allCNN := make([]Pipeline, len(imgs))
		for i := range allCNN {
			allCNN[i] = PipelineCNN
		}
		wantFast, fastStages, err := c.ClassifyBatch(imgs, allCNN)
		if err != nil {
			t.Fatal(err)
		}
		if fastStages.Reliable != 0 || fastStages.Qualifier != 0 {
			t.Errorf("wiring=%v: all-CNN batch booked reliable=%v qualifier=%v, want zero",
				wiring, fastStages.Reliable, fastStages.Qualifier)
		}
		if fastStages.CNN <= 0 {
			t.Errorf("wiring=%v: all-CNN batch booked no CNN time", wiring)
		}

		// Independent fast reference: a whole-net forward of the (possibly
		// downsampled) image — the bifurcated prefix+continuation and the
		// parallel raw-input entry both reduce to exactly this, the image
		// alone as an N=1 batch. Probabilities compare bit for bit.
		ctx := nn.NewContext()
		for i, img := range imgs {
			in := img
			if cfg.DownsampleFactor > 1 {
				if in, err = BoxDownsample(img, cfg.DownsampleFactor); err != nil {
					t.Fatal(err)
				}
			}
			in1, err := in.Reshape(append([]int{1}, in.Shape()...)...)
			if err != nil {
				t.Fatal(err)
			}
			blogits, err := h.Net().ForwardBatch(ctx, in1)
			if err != nil {
				t.Fatal(err)
			}
			logits, err := blogits.Sample(0)
			if err != nil {
				t.Fatal(err)
			}
			probs, class, err := nn.SoftmaxArgmax(logits)
			if err != nil {
				t.Fatal(err)
			}
			fr := wantFast[i]
			if fr.Class != class {
				t.Errorf("wiring=%v img %d: fast class %d != whole-net forward %d", wiring, i, fr.Class, class)
			}
			for k := range probs {
				if math.Float32bits(probs[k]) != math.Float32bits(fr.Probs[k]) {
					t.Errorf("wiring=%v img %d: fast prob[%d]=%g vs forward %g", wiring, i, k, fr.Probs[k], probs[k])
				}
			}
			// The degraded contract: no qualifier ran, no reliable work was
			// counted, and the decision is what decide() rules with a zero
			// qualifier — Rejected for safety-critical classes.
			if fr.Qualifier.Class != 0 || fr.Qualifier.Series != nil {
				t.Errorf("wiring=%v img %d: fast result carries a qualifier verdict %+v", wiring, i, fr.Qualifier)
			}
			if fr.Stats != (reliable.Stats{}) {
				t.Errorf("wiring=%v img %d: fast result counted reliable work %+v", wiring, i, fr.Stats)
			}
			wantRes := Result{Class: class}
			h.decide(&wantRes)
			if fr.Decision != wantRes.Decision {
				t.Errorf("wiring=%v img %d: fast decision %v, want %v", wiring, i, fr.Decision, wantRes.Decision)
			}
			if _, critical := cfg.SafetyClasses[class]; critical && fr.Decision != DecisionRejected {
				t.Errorf("wiring=%v img %d: unqualified safety-critical class %d decided %v, want rejected",
					wiring, i, class, fr.Decision)
			}
		}

		// Mixed batches: alternate full/fast riders through both a
		// single-worker and a multi-worker pool. Full riders must match the
		// pre-class path and fast riders the all-CNN path, bit for bit.
		pipes := make([]Pipeline, len(imgs))
		for i := range pipes {
			if i%2 == 1 {
				pipes[i] = PipelineCNN
			}
		}
		for _, workers := range []int{1, 3} {
			cw, err := h.NewBatchClassifier(workers)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := cw.ClassifyBatch(imgs, pipes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				want := wantFull[i]
				kind := "full"
				if pipes[i] == PipelineCNN {
					want = wantFast[i]
					kind = "fast"
				}
				if got[i].Class != want.Class || got[i].Decision != want.Decision ||
					got[i].Confidence != want.Confidence ||
					got[i].Qualifier.Class != want.Qualifier.Class ||
					got[i].Stats != want.Stats {
					t.Errorf("wiring=%v workers=%d img %d (%s rider): (%d,%v,%g,%v,%+v) != unmixed (%d,%v,%g,%v,%+v)",
						wiring, workers, i, kind,
						got[i].Class, got[i].Decision, got[i].Confidence, got[i].Qualifier.Class, got[i].Stats,
						want.Class, want.Decision, want.Confidence, want.Qualifier.Class, want.Stats)
				}
				for k := range want.Probs {
					if got[i].Probs[k] != want.Probs[k] {
						t.Errorf("wiring=%v workers=%d img %d (%s rider): prob[%d] %g != unmixed %g — mixing the batch moved a probability",
							wiring, workers, i, kind, k, got[i].Probs[k], want.Probs[k])
					}
				}
			}
		}
	}
}
