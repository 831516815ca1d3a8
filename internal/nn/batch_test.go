package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Batch-composition suite for the forward pass: for every layer and for
// whole networks, a sample's output inside a stacked batch must equal the
// same sample run alone as an N=1 batch, bit for bit (math.Float32bits) —
// the contract that makes a served verdict independent of which requests
// shared its batch. Convolution is additionally pinned to the direct-loop
// reference ForwardNaive.

// batchTol bounds float32 regrouping against references that sum in a
// different order (ForwardNaive, the GEMM-shaped backward chains).
const batchTol = 1e-5

// randBatch builds n random CHW samples plus their NCHW pack.
func randBatch(t testing.TB, rng *rand.Rand, n, c, h, w int) ([]*tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		x := tensor.MustNew(c, h, w)
		x.FillUniform(rng, -1, 1)
		xs[i] = x
	}
	batch, err := tensor.Stack(xs)
	if err != nil {
		t.Fatal(err)
	}
	return xs, batch
}

// checkBatchMatches runs layer.ForwardBatch on the pack and on every sample
// alone as an N=1 batch, through independent contexts, and compares sample
// for sample bit for bit.
func checkBatchMatches(t *testing.T, layer Layer, xs []*tensor.Tensor, batch *tensor.Tensor) {
	t.Helper()
	bout, err := layer.ForwardBatch(NewContext(), batch)
	if err != nil {
		t.Fatalf("%s: batched forward: %v", layer.Name(), err)
	}
	if bout.Dim(0) != len(xs) {
		t.Fatalf("%s: batched output leading dim %d != batch %d", layer.Name(), bout.Dim(0), len(xs))
	}
	ctx := NewContext()
	for i, x := range xs {
		want, err := forward1(ctx, layer, x)
		if err != nil {
			t.Fatalf("%s: N=1 forward %d: %v", layer.Name(), i, err)
		}
		got, err := bout.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		if !got.SameShape(want) {
			t.Fatalf("%s sample %d: shapes %v vs %v", layer.Name(), i, got.Shape(), want.Shape())
		}
		if j := sameBits(got.Data(), want.Data()); j >= 0 {
			t.Fatalf("%s sample %d (batch %d): element %d is %v in the batch, %v alone",
				layer.Name(), i, len(xs), j, got.Data()[j], want.Data()[j])
		}
	}
}

// batchSizes includes N=1 and sizes ragged against 2/4/8-worker pools.
var batchSizes = []int{1, 2, 3, 5, 8, 13}

func TestForwardBatchConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
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
			checkBatchMatches(t, conv, xs, batch)
			bout, err := conv.ForwardBatch(NewContext(), batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				want, err := conv.ForwardNaive(x)
				if err != nil {
					t.Fatal(err)
				}
				got, err := bout.Sample(i)
				if err != nil {
					t.Fatal(err)
				}
				if d, err := got.MaxAbsDiff(want); err != nil || d > batchTol {
					t.Fatalf("%s batch %d sample %d: differs from naive by %g (%v)", conv.Name(), n, i, d, err)
				}
			}
		}
	}
}

func TestForwardBatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
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
		checkBatchMatches(t, d, xs, batch)
	}
}

func TestForwardBatchReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := NewReLU("relu")
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 3, 6, 7)
		checkBatchMatches(t, r, xs, batch)
	}
}

func TestForwardBatchMaxPool(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, cfg := range [][2]int{{2, 2}, {3, 2}, {3, 3}} {
		p, err := NewMaxPool2D("pool", cfg[0], cfg[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range batchSizes {
			xs, batch := randBatch(t, rng, n, 4, 11, 9)
			checkBatchMatches(t, p, xs, batch)
		}
	}
}

func TestForwardBatchLRN(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	l := NewAlexNetLRN("lrn")
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 8, 5, 6)
		checkBatchMatches(t, l, xs, batch)
	}
}

func TestForwardBatchFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	f := NewFlatten("flatten")
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 3, 4, 5)
		checkBatchMatches(t, f, xs, batch)
	}
}

func TestForwardBatchDropoutInference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	d, err := NewDropout("drop", 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Inference contexts: identity.
	xs, batch := randBatch(t, rng, 5, 2, 3, 3)
	checkBatchMatches(t, d, xs, batch)

	// Training contexts: the mask is stochastic, so only the keep/scale
	// structure is checkable: every output element is 0 or input/(1-rate).
	ctx := NewContext()
	ctx.SetTraining(true)
	ctx.SetRand(rand.New(rand.NewSource(1)))
	out, err := d.ForwardBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	in, od := batch.Data(), out.Data()
	var kept int
	for i := range od {
		switch od[i] {
		case 0:
		case in[i] * 2:
			kept++
		default:
			t.Fatalf("element %d: %v is neither 0 nor 2×%v", i, od[i], in[i])
		}
	}
	if kept == 0 {
		t.Fatal("training dropout kept nothing")
	}
}

// TestForwardBatchSequentialMicro pins the whole micro-AlexNet chain: a
// sample's logits are the same bits alone and inside any batch.
func TestForwardBatchSequentialMicro(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 3, 32, 32)
		checkBatchMatches(t, net, xs, batch)
	}
}

// TestForwardBatchFromMatchesForwardFrom pins the mid-chain entry point the
// hybrid network uses to continue batches past the reliable prefix: a
// stacked batch of conv1 feature maps continued with ForwardBatchFrom gives
// every sample the same logits bits as continuing its feature map alone.
func TestForwardBatchFromMatchesForwardFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	conv1, err := FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	_, batch := randBatch(t, rng, 5, 3, 32, 32)
	fbatch, err := conv1.ForwardBatch(NewContext(), batch)
	if err != nil {
		t.Fatal(err)
	}
	bout, err := net.ForwardBatchFrom(NewContext(), 1, fbatch)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	for i := 0; i < fbatch.Dim(0); i++ {
		f, err := fbatch.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		f1, err := batchOf(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := net.ForwardBatchFrom(ctx, 1, f1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bout.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		if j := sameBits(got.Data(), want.Data()); j >= 0 {
			t.Fatalf("sample %d: ForwardBatchFrom differs from the N=1 continuation at %d", i, j)
		}
	}
}

// TestForwardBatchFullAlexNet runs the paper's full AlexNet (227×227, ~60M
// params) stacked vs alone. Expensive: skipped in -short runs.
func TestForwardBatchFullAlexNet(t *testing.T) {
	if testing.Short() {
		t.Skip("full AlexNet forward is expensive")
	}
	rng := rand.New(rand.NewSource(49))
	net, err := NewAlexNet(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs, batch := randBatch(t, rng, 2, 3, AlexNetInputSize, AlexNetInputSize)
	checkBatchMatches(t, net, xs, batch)
}

// TestForwardBatchScratchReuse pins the batch-sized context scratch: two
// batched conv calls through one context must reuse the grown buffers
// (second call allocates only its output tensor, not fresh im2col scratch).
func TestForwardBatchScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	conv, err := NewConv2D("conv", 3, 8, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	_, batch := randBatch(t, rng, 8, 3, 16, 16)
	if _, err := conv.ForwardBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := conv.ForwardBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	})
	// One output tensor (struct + shape + strides + data) per call; the
	// im2col and GEMM scratch must come from the context. Generous bound:
	// anything near the scratch sizes would blow straight past it.
	if allocs > 8 {
		t.Fatalf("batched conv allocates %.0f objects per call; scratch not reused", allocs)
	}
}

func TestForwardBatchShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	conv, err := NewConv2D("conv", 3, 4, 3, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense("fc", 10, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	if _, err := conv.ForwardBatch(ctx, tensor.MustNew(3, 8, 8)); err == nil {
		t.Fatal("conv accepted rank-3 input")
	}
	if _, err := conv.ForwardBatch(ctx, tensor.MustNew(2, 5, 8, 8)); err == nil {
		t.Fatal("conv accepted wrong channel count")
	}
	if _, err := conv.ForwardBatch(nil, tensor.MustNew(2, 3, 8, 8)); err == nil {
		t.Fatal("conv accepted nil context")
	}
	if _, err := d.ForwardBatch(ctx, tensor.MustNew(10)); err == nil {
		t.Fatal("dense accepted rank-1 input")
	}
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ForwardBatch(nil, tensor.MustNew(1, 3, 32, 32)); err == nil {
		t.Fatal("sequential accepted nil context")
	}
	if _, err := net.ForwardBatchFrom(NewContext(), 99, tensor.MustNew(1, 3, 32, 32)); err == nil {
		t.Fatal("sequential accepted out-of-range from index")
	}
}
