package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// batchGrads runs one mini-batch through a fresh net/trainer with the given
// SubBatch and worker count and returns the accumulated canonical gradients.
func batchGrads(t *testing.T, subBatch, workers int) []float64 {
	t.Helper()
	ds := tinyDataset(t, 4, 1)
	batch := make([]int, ds.Len())
	for i := range batch {
		batch[i] = i
	}
	net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.01, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Net: net, Opt: opt, Workers: workers, SubBatch: subBatch,
		Rng: rand.New(rand.NewSource(2))}
	if err := tr.normalize(); err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*nn.Context, workers)
	for i := range ctxs {
		ctx := nn.NewContext()
		ctx.SetTraining(true)
		if workers > 1 {
			ctx.ShadowGrads(true)
		}
		ctxs[i] = ctx
	}
	net.ZeroGrads()
	if _, err := tr.runBatch(ctxs, ds, batch, 0); err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data() {
			out = append(out, float64(g))
		}
	}
	return out
}

// TestBatchedGradientsMatchPerSample: one mini-batch as whole-shard and
// capped sub-batches must accumulate the same canonical gradients as the
// same samples run one at a time as N=1 batches, up to floating-point
// summation order.
func TestBatchedGradientsMatchPerSample(t *testing.T) {
	want := batchGrads(t, 1, 1) // N=1 batches
	for _, subBatch := range []int{0, 2, 3, 8} {
		got := batchGrads(t, subBatch, 1)
		if len(got) != len(want) {
			t.Fatalf("subbatch=%d: %d grads != %d", subBatch, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-4 {
				t.Fatalf("subbatch=%d: grad[%d] = %v, N=1 batches %v", subBatch, i, got[i], want[i])
			}
		}
	}
}

// TestBatchedGradientsMatchAcrossWorkers: the batched shard path composes
// with data-parallel workers — shadow-gradient reduction is unchanged.
func TestBatchedGradientsMatchAcrossWorkers(t *testing.T) {
	want := batchGrads(t, 0, 1)
	for _, workers := range []int{2, 3, 4} {
		got := batchGrads(t, 0, workers)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-4 {
				t.Fatalf("workers=%d: grad[%d] = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

// fitLosses trains a fresh net end to end with the given SubBatch and
// returns the per-epoch mean losses.
func fitLosses(t *testing.T, subBatch int) []float64 {
	t.Helper()
	ds := tinyDataset(t, 6, 3)
	net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.05, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	tr := &Trainer{
		Net: net, Opt: opt, BatchSize: 8, Epochs: 4, SubBatch: subBatch,
		Rng: rand.New(rand.NewSource(12)),
		OnEpoch: func(epoch int, loss float64) error {
			losses = append(losses, loss)
			return nil
		},
	}
	if _, err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return losses
}

// TestFitLossTrajectoryBatchedVsPerSample: end-to-end Trainer.Fit must walk
// the same loss trajectory with whole-shard batches (SubBatch 0) and N=1
// batches (SubBatch 1). The runs share seeds and update rule; only float32
// summation order differs, and the divergence compounds through the
// optimiser, so the tolerance is loose relative to the per-step 1e-5
// gradient equivalence.
func TestFitLossTrajectoryBatchedVsPerSample(t *testing.T) {
	batched := fitLosses(t, 0)
	perSample := fitLosses(t, 1)
	if len(batched) != len(perSample) {
		t.Fatalf("epoch counts differ: %d vs %d", len(batched), len(perSample))
	}
	for e := range batched {
		if d := math.Abs(batched[e] - perSample[e]); d > 1e-2 {
			t.Fatalf("epoch %d: batched loss %v vs N=1 batches %v (diff %v)",
				e, batched[e], perSample[e], d)
		}
	}
	if last := batched[len(batched)-1]; !(last < batched[0]) {
		t.Errorf("batched training did not reduce loss: first %v last %v", batched[0], last)
	}
}

// TestBatchedMixedShapeFallback: a shard whose images disagree in shape
// runs one batch per shape group (first-seen order), so its loss and
// accumulated gradients must equal running each group alone, in that
// order — bit for bit — and match N=1 batches up to summation order.
func TestBatchedMixedShapeFallback(t *testing.T) {
	// conv+flatten accepts any input size; each size gives its own class
	// count, and every label stays in range of the smaller one.
	rng := rand.New(rand.NewSource(5))
	conv, err := nn.NewConv2D("c", 3, 2, 3, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewSequential("convnet", conv, nn.NewFlatten("f"))
	if err != nil {
		t.Fatal(err)
	}
	ds := tinyDataset(t, 1, 5) // 6 samples, labels 0..5
	for _, i := range []int{1, 4} {
		odd := tensor.MustNew(3, 5, 5) // 3×3×2 = 18 outputs
		odd.FillUniform(rng, 0, 1)
		ds.Examples[i].Image = odd
	}
	shard := []int{0, 1, 2, 3, 4, 5}
	run := func(subBatch int, parts ...[]int) (float64, []float32) {
		tr := &Trainer{Net: net, Opt: &SGD{}, SubBatch: subBatch}
		ctx := nn.NewContext()
		ctx.SetTraining(true)
		net.ZeroGrads()
		var loss float64
		for _, part := range parts {
			l, err := tr.runShard(ctx, ds, part, 0)
			if err != nil {
				t.Fatal(err)
			}
			loss += l
		}
		var grads []float32
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Data()...)
		}
		return loss, grads
	}
	loss, grads := run(0, shard)
	wantLoss, wantGrads := run(0, []int{0, 2, 3, 5}, []int{1, 4})
	if loss != wantLoss {
		t.Fatalf("mixed shard loss %v, groups alone %v", loss, wantLoss)
	}
	for i := range grads {
		if math.Float32bits(grads[i]) != math.Float32bits(wantGrads[i]) {
			t.Fatalf("grad[%d] = %v, groups alone %v", i, grads[i], wantGrads[i])
		}
	}
	oneLoss, oneGrads := run(1, shard)
	if math.Abs(loss-oneLoss) > 1e-4 {
		t.Fatalf("mixed shard loss %v, N=1 batches %v", loss, oneLoss)
	}
	for i := range grads {
		if math.Abs(float64(grads[i]-oneGrads[i])) > 1e-4 {
			t.Fatalf("grad[%d] = %v, N=1 batches %v", i, grads[i], oneGrads[i])
		}
	}
}

// TestSubBatchValidation: negative sub-batches are rejected up front.
func TestSubBatchValidation(t *testing.T) {
	ds := tinyDataset(t, 1, 1)
	net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.01, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Net: net, Opt: opt, SubBatch: -1, Rng: rand.New(rand.NewSource(2))}
	if _, err := tr.Fit(ds); err == nil {
		t.Fatal("negative sub-batch accepted")
	}
}
