package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Batch-composition suite for the backward pass: for every layer and for
// whole networks, BackwardBatch over a stacked batch must match the same
// samples run one at a time as N=1 batches — input gradients sample for
// sample, parameter gradients accumulator for accumulator. (The finite
// difference checks in nn_test.go pin the N=1 and N=3 gradients against
// the definition.) The pure-Go reductions (bias gradients, mask/argmax
// routing) are bit-identical by construction; the GEMM-shaped dW/dX chains
// regroup float32 additions, so those compare under a scaled 1e-5
// tolerance. The whole file runs under -race and -tags noasm in CI.

// maxAbs returns the largest absolute element of t.
func maxAbs(t *tensor.Tensor) float32 {
	var m float32
	for _, v := range t.Data() {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// closeGrads compares got against want under batchTol scaled by want's
// magnitude (an absolute 1e-5 for O(1) gradients, relative for the large
// batch-summed dW accumulations whose float32 chains regroup across paths).
func closeGrads(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	d, err := got.MaxAbsDiff(want)
	if err != nil {
		t.Fatalf("%s: shapes %v vs %v: %v", name, got.Shape(), want.Shape(), err)
	}
	scale := float64(maxAbs(want))
	if scale < 1 {
		scale = 1
	}
	if d > batchTol*scale {
		t.Fatalf("%s: batched gradient differs from N=1 batches by %g (scale %g)", name, d, scale)
	}
}

// zeroGrads clears every parameter gradient of l.
func zeroGrads(l Layer) {
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
}

// snapshotGrads clones every parameter gradient of l, in Params order.
func snapshotGrads(l Layer) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range l.Params() {
		out = append(out, p.Grad.Clone())
	}
	return out
}

// checkBackwardBatchMatches drives one layer over the stacked batch and over
// each sample as an N=1 batch, with the same inputs and output gradients,
// and compares input gradients sample for sample and parameter gradients
// accumulator for accumulator.
func checkBackwardBatchMatches(t *testing.T, layer Layer, xs []*tensor.Tensor, batch *tensor.Tensor) {
	t.Helper()
	n := len(xs)

	// Batched pass: training-mode ForwardBatch caches the backward state.
	bctx := NewContext()
	bctx.SetTraining(true)
	bout, err := layer.ForwardBatch(bctx, batch)
	if err != nil {
		t.Fatalf("%s: batched forward: %v", layer.Name(), err)
	}

	// One random output gradient per sample, packed for the batched call.
	rng := rand.New(rand.NewSource(int64(1000 + n)))
	gs := make([]*tensor.Tensor, n)
	for i := range gs {
		s, err := bout.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		g := tensor.MustNew(s.Shape()...)
		g.FillUniform(rng, -1, 1)
		gs[i] = g
	}
	gbatch, err := tensor.Stack(gs)
	if err != nil {
		t.Fatal(err)
	}

	zeroGrads(layer)
	bdx, err := layer.BackwardBatch(bctx, gbatch)
	if err != nil {
		t.Fatalf("%s: batched backward: %v", layer.Name(), err)
	}
	bgrads := snapshotGrads(layer)

	// N=1 reference over the same inputs and gradients.
	zeroGrads(layer)
	ctx := NewContext()
	ctx.SetTraining(true)
	for i, x := range xs {
		if _, err := forward1(ctx, layer, x); err != nil {
			t.Fatalf("%s: N=1 forward %d: %v", layer.Name(), i, err)
		}
		want, err := backward1(ctx, layer, gs[i])
		if err != nil {
			t.Fatalf("%s: N=1 backward %d: %v", layer.Name(), i, err)
		}
		got, err := bdx.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		flatGot, err := got.Reshape(got.Len())
		if err != nil {
			t.Fatal(err)
		}
		flatWant, err := want.Reshape(want.Len())
		if err != nil {
			t.Fatal(err)
		}
		closeGrads(t, fmt.Sprintf("%s dX sample %d (batch %d)", layer.Name(), i, n), flatGot, flatWant)
	}
	for pi, p := range layer.Params() {
		closeGrads(t, fmt.Sprintf("%s %s (batch %d)", layer.Name(), p.Name, n), bgrads[pi], p.Grad)
	}
}

func TestBackwardBatchConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, tc := range []struct{ inC, outC, k, stride, pad, size int }{
		{3, 8, 3, 1, 1, 12},
		{2, 5, 5, 2, 0, 17},
		{4, 7, 3, 2, 1, 9},
		{1, 4, 2, 2, 0, 8},
	} {
		conv, err := NewConv2D(fmt.Sprintf("conv%dx%d", tc.k, tc.stride), tc.inC, tc.outC,
			tc.k, tc.stride, tc.pad, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range batchSizes {
			xs, batch := randBatch(t, rng, n, tc.inC, tc.size, tc.size)
			checkBackwardBatchMatches(t, conv, xs, batch)
		}
	}
}

func TestBackwardBatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d, err := NewDense("fc", 37, 11, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range batchSizes {
		xs := make([]*tensor.Tensor, n)
		for i := range xs {
			x := tensor.MustNew(37)
			x.FillUniform(rng, -1, 1)
			xs[i] = x
		}
		batch, err := tensor.Stack(xs)
		if err != nil {
			t.Fatal(err)
		}
		checkBackwardBatchMatches(t, d, xs, batch)
	}
}

func TestBackwardBatchReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	r := NewReLU("relu")
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 3, 6, 7)
		checkBackwardBatchMatches(t, r, xs, batch)
	}
}

func TestBackwardBatchMaxPool(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, cfg := range [][2]int{{2, 2}, {3, 2}, {3, 3}} {
		p, err := NewMaxPool2D("pool", cfg[0], cfg[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range batchSizes {
			xs, batch := randBatch(t, rng, n, 4, 11, 9)
			checkBackwardBatchMatches(t, p, xs, batch)
		}
	}
}

func TestBackwardBatchLRN(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	l := NewAlexNetLRN("lrn")
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 8, 5, 6)
		checkBackwardBatchMatches(t, l, xs, batch)
	}
}

func TestBackwardBatchFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	f := NewFlatten("flatten")
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 3, 4, 5)
		checkBackwardBatchMatches(t, f, xs, batch)
	}
}

// TestBackwardBatchDropout pins the one stochastic layer. A single dropout
// layer draws its mask element-ascending over the flattened batch — the
// same RNG stream N sequential N=1 passes consume — so with matched seeds
// the masks, outputs and gradients agree exactly.
func TestBackwardBatchDropout(t *testing.T) {
	baseRng := rand.New(rand.NewSource(66))
	d, err := NewDropout("drop", 0.4, baseRng)
	if err != nil {
		t.Fatal(err)
	}
	xs, batch := randBatch(t, baseRng, 5, 2, 3, 4)
	gs, gbatch := randBatch(t, baseRng, 5, 2, 3, 4)

	bctx := NewContext()
	bctx.SetTraining(true)
	bctx.SetRand(rand.New(rand.NewSource(7)))
	if _, err := d.ForwardBatch(bctx, batch); err != nil {
		t.Fatal(err)
	}
	bdx, err := d.BackwardBatch(bctx, gbatch)
	if err != nil {
		t.Fatal(err)
	}

	ctx := NewContext()
	ctx.SetTraining(true)
	ctx.SetRand(rand.New(rand.NewSource(7)))
	for i, x := range xs {
		if _, err := forward1(ctx, d, x); err != nil {
			t.Fatal(err)
		}
		want, err := backward1(ctx, d, gs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := bdx.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		dd, err := got.MaxAbsDiff(want)
		if err != nil {
			t.Fatal(err)
		}
		if dd != 0 {
			t.Fatalf("dropout sample %d: batched gradient differs by %g with matched RNG streams", i, dd)
		}
	}

	// Inference contexts: BackwardBatch is the identity.
	ictx := NewContext()
	if _, err := d.ForwardBatch(ictx, batch); err != nil {
		t.Fatal(err)
	}
	idx, err := d.BackwardBatch(ictx, gbatch)
	if err != nil {
		t.Fatal(err)
	}
	if idx != gbatch {
		t.Fatal("inference dropout BackwardBatch is not the identity")
	}
}

// TestBackwardBatchBiasBitIdentical pins the tensor.AddRowSums/AddColSums
// accumulation-order design: bias gradients never pass through a GEMM, so
// a stacked batch and N sequential N=1 batches must agree on dB bit for bit
// on EVERY build (asm and noasm alike) — each sample's spatial sum is its
// own float32 chain folded into the accumulator in sample order.
func TestBackwardBatchBiasBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	conv, err := NewConv2D("conv", 3, 6, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense("fc", 40, 9, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []Layer{conv, dense} {
		var xs []*tensor.Tensor
		var batch *tensor.Tensor
		if layer == conv {
			xs, batch = randBatch(t, rng, 7, 3, 10, 10)
		} else {
			xs = make([]*tensor.Tensor, 7)
			for i := range xs {
				x := tensor.MustNew(40)
				x.FillUniform(rng, -1, 1)
				xs[i] = x
			}
			var err error
			batch, err = tensor.Stack(xs)
			if err != nil {
				t.Fatal(err)
			}
		}
		bctx := NewContext()
		bctx.SetTraining(true)
		bout, err := layer.ForwardBatch(bctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		gs := make([]*tensor.Tensor, len(xs))
		for i := range gs {
			s, err := bout.Sample(i)
			if err != nil {
				t.Fatal(err)
			}
			g := tensor.MustNew(s.Shape()...)
			g.FillUniform(rng, -1, 1)
			gs[i] = g
		}
		gbatch, err := tensor.Stack(gs)
		if err != nil {
			t.Fatal(err)
		}
		zeroGrads(layer)
		if _, err := layer.BackwardBatch(bctx, gbatch); err != nil {
			t.Fatal(err)
		}
		biasIdx := len(layer.Params()) - 1 // bias is last in Params order
		bdb := layer.Params()[biasIdx].Grad.Clone()

		zeroGrads(layer)
		ctx := NewContext()
		ctx.SetTraining(true)
		for i, x := range xs {
			if _, err := forward1(ctx, layer, x); err != nil {
				t.Fatal(err)
			}
			if _, err := backward1(ctx, layer, gs[i]); err != nil {
				t.Fatal(err)
			}
		}
		want := layer.Params()[biasIdx].Grad
		for i, v := range want.Data() {
			if bdb.Data()[i] != v {
				t.Fatalf("%s bias grad elem %d: batched %v != N=1 batches %v (must be bit-identical)",
					layer.Name(), i, bdb.Data()[i], v)
			}
		}
	}
}

// TestBackwardBatchSequentialMicro pins the whole micro-AlexNet training
// step: forward + softmax-cross-entropy + backward over a stacked batch
// must match the loop over N=1 batches — losses, every parameter gradient,
// and the input gradient.
func TestBackwardBatchSequentialMicro(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMicroConfig()
	for _, n := range []int{1, 3, 8} {
		xs, batch := randBatch(t, rng, n, 3, cfg.InputSize, cfg.InputSize)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(cfg.Classes)
		}

		bctx := NewContext()
		bctx.SetTraining(true)
		blogits, err := net.ForwardBatch(bctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		bloss, bgrad, err := CrossEntropyLossBatch(blogits, labels)
		if err != nil {
			t.Fatal(err)
		}
		net.ZeroGrads()
		bdx, err := net.BackwardBatch(bctx, bgrad)
		if err != nil {
			t.Fatal(err)
		}
		var bgrads []*tensor.Tensor
		for _, p := range net.Params() {
			bgrads = append(bgrads, p.Grad.Clone())
		}

		net.ZeroGrads()
		ctx := NewContext()
		ctx.SetTraining(true)
		var loss float64
		for i, x := range xs {
			x1, err := batchOf(x)
			if err != nil {
				t.Fatal(err)
			}
			logits, err := net.ForwardBatch(ctx, x1)
			if err != nil {
				t.Fatal(err)
			}
			l, g, err := CrossEntropyLossBatch(logits, labels[i:i+1])
			if err != nil {
				t.Fatal(err)
			}
			loss += l
			dx, err := net.BackwardBatch(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bdx.Sample(i)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dx.Sample(0)
			if err != nil {
				t.Fatal(err)
			}
			closeGrads(t, fmt.Sprintf("micro dX sample %d (batch %d)", i, n), got, want)
		}
		if d := bloss - loss; d > 1e-6*float64(n) || d < -1e-6*float64(n) {
			t.Fatalf("batch %d: batched loss %v != N=1 sum %v", n, bloss, loss)
		}
		for pi, p := range net.Params() {
			closeGrads(t, fmt.Sprintf("micro %s (batch %d)", p.Name, n), bgrads[pi], p.Grad)
		}
	}
}

// TestCrossEntropyLossBatchMatchesPerSample pins the batched loss bit for
// bit against each row alone as an N=1 batch: same softmax rows, same
// clamp, same float64 summation order.
func TestCrossEntropyLossBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	n, k := 7, 6
	logits := tensor.MustNew(n, k)
	logits.FillUniform(rng, -4, 4)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	bloss, bgrad, err := CrossEntropyLossBatch(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	var loss float64
	for i := 0; i < n; i++ {
		row1, err := tensor.FromSlice(logits.Data()[i*k:(i+1)*k], 1, k)
		if err != nil {
			t.Fatal(err)
		}
		l, g, err := CrossEntropyLossBatch(row1, labels[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		loss += l
		brow, err := bgrad.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range g.Data() {
			if brow.Data()[j] != v {
				t.Fatalf("grad row %d elem %d: batched %v != N=1 %v", i, j, brow.Data()[j], v)
			}
		}
	}
	if bloss != loss {
		t.Fatalf("batched loss %v != N=1 sum %v", bloss, loss)
	}

	// Shape errors name the offending dims.
	if _, _, err := CrossEntropyLossBatch(tensor.MustNew(4), nil); err == nil {
		t.Fatal("rank-1 logits accepted")
	}
	if _, _, err := CrossEntropyLossBatch(logits, make([]int, n-1)); err == nil {
		t.Fatal("short label slice accepted")
	}
	labels[2] = k
	if _, _, err := CrossEntropyLossBatch(logits, labels); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

// TestBackwardBatchShadowGrads pins that BackwardBatch respects the
// context's shadow-gradient accumulators — the mechanism data-parallel
// training uses to stay race-free.
func TestBackwardBatchShadowGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	d, err := NewDense("fc", 12, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.Tensor, 4)
	for i := range xs {
		x := tensor.MustNew(12)
		x.FillUniform(rng, -1, 1)
		xs[i] = x
	}
	batch, err := tensor.Stack(xs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	ctx.SetTraining(true)
	ctx.ShadowGrads(true)
	out, err := d.ForwardBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.MustNew(out.Shape()...)
	g.FillUniform(rng, -1, 1)
	zeroGrads(d)
	if _, err := d.BackwardBatch(ctx, g); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Params() {
		if maxAbs(p.Grad) != 0 {
			t.Fatalf("%s: canonical grad written despite shadowing", p.Name)
		}
	}
	if err := ctx.FlushGrads(); err != nil {
		t.Fatal(err)
	}
	var total float32
	for _, p := range d.Params() {
		total += maxAbs(p.Grad)
	}
	if total == 0 {
		t.Fatal("flush produced no gradient")
	}
}

// TestBackwardBatchErrors pins the failure modes: backward before a
// training-mode batched forward, mismatched gradient shapes, nil contexts.
func TestBackwardBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	conv, err := NewConv2D("conv", 3, 4, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense("fc", 10, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewMaxPool2D("pool", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReLU("relu")
	f := NewFlatten("flatten")
	l := NewAlexNetLRN("lrn")
	grad4 := tensor.MustNew(2, 4, 8, 8)
	for _, layer := range []Layer{conv, d, p, r, f, l} {
		if _, err := layer.BackwardBatch(nil, grad4); err == nil {
			t.Fatalf("%s: nil context accepted", layer.Name())
		}
		if _, err := layer.BackwardBatch(NewContext(), grad4); err == nil && layer != d {
			// Dropout-style identity layers are exempt by design; none here.
			t.Fatalf("%s: batched backward before batched forward accepted", layer.Name())
		}
	}

	// An INFERENCE ForwardBatch must not arm the batch backward cache.
	ictx := NewContext()
	if _, err := conv.ForwardBatch(ictx, tensor.MustNew(2, 3, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := conv.BackwardBatch(ictx, grad4); err == nil {
		t.Fatal("conv: inference batched forward armed the backward cache")
	}

	// Wrong gradient shape after a proper training forward.
	tctx := NewContext()
	tctx.SetTraining(true)
	if _, err := conv.ForwardBatch(tctx, tensor.MustNew(2, 3, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := conv.BackwardBatch(tctx, tensor.MustNew(3, 4, 8, 8)); err == nil {
		t.Fatal("conv: wrong batch size in gradient accepted")
	}

	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.BackwardBatch(nil, grad4); err == nil {
		t.Fatal("sequential: nil context accepted")
	}
}

// TestBackwardBatchScratchReuse pins the batch-sized backward scratch: a
// second batched backward through the same context must reuse the grown
// transpose/column buffers rather than reallocating them.
func TestBackwardBatchScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	conv, err := NewConv2D("conv", 3, 8, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	ctx.SetTraining(true)
	_, batch := randBatch(t, rng, 8, 3, 16, 16)
	out, err := conv.ForwardBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.MustNew(out.Shape()...)
	g.FillUniform(rng, -1, 1)
	if _, err := conv.BackwardBatch(ctx, g); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := conv.BackwardBatch(ctx, g); err != nil {
			t.Fatal(err)
		}
	})
	// One dx tensor per call plus transient GEMM panel-pool churn; the
	// transpose and column scratch must come from the context. Anything
	// near the scratch sizes would blow straight past this bound.
	if allocs > 16 {
		t.Fatalf("batched conv backward allocates %.0f objects per call; scratch not reused", allocs)
	}
}
