package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// dotAll computes Σ out·G, the scalar loss used by the numerical gradient
// checks.
func dotAll(t *testing.T, out, g *tensor.Tensor) float64 {
	t.Helper()
	d, err := out.Dot(g)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// gradCheck verifies a layer's BackwardBatch against central differences
// over the batch x, for both the input gradient and every parameter
// gradient. Checks a sample of indices to stay fast.
func gradCheck(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	ctx := NewContext()
	ctx.SetTraining(true)
	rng := rand.New(rand.NewSource(99))
	out, err := layer.ForwardBatch(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	upstream := tensor.MustNew(out.Shape()...)
	upstream.FillUniform(rng, -1, 1)

	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	dx, err := layer.BackwardBatch(ctx, upstream)
	if err != nil {
		t.Fatal(err)
	}

	const h = 1e-2
	checkTensor := func(name string, value, analytic *tensor.Tensor) {
		n := value.Len()
		step := n/17 + 1 // sample ~17 indices
		for i := 0; i < n; i += step {
			orig := value.Data()[i]
			value.Data()[i] = orig + h
			o1, err := layer.ForwardBatch(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			f1 := dotAll(t, o1, upstream)
			value.Data()[i] = orig - h
			o2, err := layer.ForwardBatch(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			f2 := dotAll(t, o2, upstream)
			value.Data()[i] = orig

			num := (f1 - f2) / (2 * h)
			ana := float64(analytic.Data()[i])
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if math.Abs(num-ana)/scale > tol {
				t.Errorf("%s grad[%d] (batch %d): analytic %v vs numeric %v", name, i, x.Dim(0), ana, num)
			}
		}
	}
	checkTensor("input", x, dx)
	for _, p := range layer.Params() {
		checkTensor(p.Name, p.Value, p.Grad)
	}
}

// gradCheckBatches runs gradCheck on random batches of N=1 and N=3
// samples of shape sample.
func gradCheckBatches(t *testing.T, layer Layer, rng *rand.Rand, lo, hi float32, sample ...int) {
	t.Helper()
	for _, n := range []int{1, 3} {
		x := tensor.MustNew(append([]int{n}, sample...)...)
		x.FillUniform(rng, lo, hi)
		gradCheck(t, layer, x, 5e-2)
	}
}

func TestConvForwardIdentityKernel(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(1))
	c, err := NewConv2D("c", 1, 1, 1, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	c.Weight().Fill(1) // 1×1 kernel of 1 = identity
	c.Bias().Fill(0)
	x := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	out, err := forward1(ctx, c, x)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(x, 1e-6) {
		t.Error("1×1 unit kernel should be identity")
	}
}

func TestConvForwardKnownValues(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(2))
	c, err := NewConv2D("c", 1, 1, 2, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel [[1,0],[0,1]]: out[y][x] = in[y][x] + in[y+1][x+1].
	copy(c.Weight().Data(), []float32{1, 0, 0, 1})
	c.Bias().Data()[0] = 10
	x := tensor.MustFromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	out, err := forward1(ctx, c, x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{16, 18, 22, 24} // +10 bias
	for i, w := range want {
		if out.Data()[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
}

func TestConvStridePad(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(3))
	c, err := NewConv2D("c", 2, 3, 3, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(2, 7, 7)
	x.FillUniform(rng, -1, 1)
	out, err := forward1(ctx, c, x)
	if err != nil {
		t.Fatal(err)
	}
	// (7+2−3)/2+1 = 4
	if out.Dim(0) != 3 || out.Dim(1) != 4 || out.Dim(2) != 4 {
		t.Errorf("shape = %v, want [3 4 4]", out.Shape())
	}
}

func TestConvValidation(t *testing.T) {
	ctx := NewContext()
	ctx.SetTraining(true)
	rng := rand.New(rand.NewSource(4))
	if _, err := NewConv2D("c", 0, 1, 3, 1, 0, rng); err == nil {
		t.Error("zero in-channels should fail")
	}
	if _, err := NewConv2D("c", 1, 1, 0, 1, 0, rng); err == nil {
		t.Error("zero kernel should fail")
	}
	if _, err := NewConv2D("c", 1, 1, 3, 0, 0, rng); err == nil {
		t.Error("zero stride should fail")
	}
	if _, err := NewConv2D("c", 1, 1, 3, 1, -1, rng); err == nil {
		t.Error("negative pad should fail")
	}
	if _, err := NewConv2D("c", 1, 1, 3, 1, 0, nil); err == nil {
		t.Error("nil rng should fail")
	}
	c, _ := NewConv2D("c", 2, 1, 3, 1, 0, rng)
	if _, err := forward1(ctx, c, tensor.MustNew(3, 5, 5)); err == nil {
		t.Error("channel mismatch should fail")
	}
	if _, err := forward1(ctx, c, tensor.MustNew(2, 2, 2)); err == nil {
		t.Error("too-small input should fail")
	}
	if _, err := backward1(ctx, c, tensor.MustNew(1, 1, 1)); err == nil {
		t.Error("backward before forward should fail")
	}
	if _, err := forward1(ctx, c, tensor.MustNew(2, 5, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := backward1(ctx, c, tensor.MustNew(9, 9, 9)); err == nil {
		t.Error("wrong gradient shape should fail")
	}
}

func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewConv2D("c", 2, 3, 3, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	gradCheckBatches(t, c, rng, -1, 1, 2, 6, 6)
}

func TestConvAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, _ := NewConv2D("c", 3, 8, 5, 2, 1, rng)
	if c.Filters() != 8 || c.Kernel() != 5 || c.InChannels() != 3 || c.Stride() != 2 || c.Pad() != 1 {
		t.Error("accessors wrong")
	}
	if len(c.Params()) != 2 {
		t.Error("conv should expose weight and bias")
	}
}

func TestMaxPool(t *testing.T) {
	ctx := NewContext()
	ctx.SetTraining(true)
	p, err := NewMaxPool2D("p", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 0, 9,
	}, 1, 4, 4)
	out, err := forward1(ctx, p, x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 8, -1, 9}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Errorf("pool out[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
	// Backward routes to argmax.
	g := tensor.MustFromSlice([]float32{10, 20, 30, 40}, 1, 2, 2)
	dx, err := backward1(ctx, p, g)
	if err != nil {
		t.Fatal(err)
	}
	if dx.At(0, 1, 1) != 10 || dx.At(0, 1, 3) != 20 || dx.At(0, 2, 0) != 30 || dx.At(0, 3, 3) != 40 {
		t.Errorf("pool backward wrong: %v", dx.Data())
	}
	if dx.Sum() != 100 {
		t.Errorf("pool backward should conserve gradient mass, got %v", dx.Sum())
	}
}

func TestMaxPoolValidation(t *testing.T) {
	ctx := NewContext()
	ctx.SetTraining(true)
	if _, err := NewMaxPool2D("p", 0, 1); err == nil {
		t.Error("window 0 should fail")
	}
	if _, err := NewMaxPool2D("p", 2, 0); err == nil {
		t.Error("stride 0 should fail")
	}
	p, _ := NewMaxPool2D("p", 3, 2)
	if _, err := forward1(ctx, p, tensor.MustNew(4)); err == nil {
		t.Error("rank-1 input should fail")
	}
	if _, err := forward1(ctx, p, tensor.MustNew(1, 2, 2)); err == nil {
		t.Error("too-small input should fail")
	}
	if _, err := backward1(ctx, p, tensor.MustNew(1, 1, 1)); err == nil {
		t.Error("backward before forward should fail")
	}
}

func TestReLU(t *testing.T) {
	ctx := NewContext()
	ctx.SetTraining(true)
	r := NewReLU("r")
	x := tensor.MustFromSlice([]float32{-1, 0, 2}, 3)
	out, err := forward1(ctx, r, x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 0 || out.Data()[1] != 0 || out.Data()[2] != 2 {
		t.Errorf("relu forward = %v", out.Data())
	}
	if x.Data()[0] != -1 {
		t.Error("relu must not mutate its input")
	}
	g := tensor.MustFromSlice([]float32{5, 5, 5}, 3)
	dx, err := backward1(ctx, r, g)
	if err != nil {
		t.Fatal(err)
	}
	if dx.Data()[0] != 0 || dx.Data()[1] != 0 || dx.Data()[2] != 5 {
		t.Errorf("relu backward = %v", dx.Data())
	}
	r2 := NewReLU("r2")
	if _, err := backward1(ctx, r2, g); err == nil {
		t.Error("backward before forward should fail")
	}
	if _, err := backward1(ctx, r, tensor.MustNew(5)); err == nil {
		t.Error("wrong gradient length should fail")
	}
}

func TestFlatten(t *testing.T) {
	ctx := NewContext()
	ctx.SetTraining(true)
	f := NewFlatten("f")
	x := tensor.MustNew(2, 3, 4)
	out, err := forward1(ctx, f, x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rank() != 1 || out.Len() != 24 {
		t.Errorf("flatten shape %v", out.Shape())
	}
	g := tensor.MustNew(24)
	dx, err := backward1(ctx, f, g)
	if err != nil {
		t.Fatal(err)
	}
	if dx.Rank() != 3 || dx.Dim(2) != 4 {
		t.Errorf("unflatten shape %v", dx.Shape())
	}
	f2 := NewFlatten("f2")
	if _, err := backward1(ctx, f2, g); err == nil {
		t.Error("backward before forward should fail")
	}
}

func TestDenseForwardKnown(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(7))
	d, err := NewDense("d", 2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	copy(d.Weight().Data(), []float32{1, 2, 3, 4})
	copy(d.Bias().Data(), []float32{10, 20})
	x := tensor.MustFromSlice([]float32{1, 1}, 2)
	out, err := forward1(ctx, d, x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 13 || out.Data()[1] != 27 {
		t.Errorf("dense forward = %v, want [13 27]", out.Data())
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d, err := NewDense("d", 6, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	gradCheckBatches(t, d, rng, -1, 1, 6)
}

func TestDenseValidation(t *testing.T) {
	ctx := NewContext()
	ctx.SetTraining(true)
	rng := rand.New(rand.NewSource(9))
	if _, err := NewDense("d", 0, 1, rng); err == nil {
		t.Error("zero input dim should fail")
	}
	if _, err := NewDense("d", 1, 1, nil); err == nil {
		t.Error("nil rng should fail")
	}
	d, _ := NewDense("d", 3, 2, rng)
	if _, err := forward1(ctx, d, tensor.MustNew(4)); err == nil {
		t.Error("wrong input length should fail")
	}
	if _, err := backward1(ctx, d, tensor.MustNew(2)); err == nil {
		t.Error("backward before forward should fail")
	}
	if _, err := forward1(ctx, d, tensor.MustNew(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := backward1(ctx, d, tensor.MustNew(3)); err == nil {
		t.Error("wrong gradient length should fail")
	}
}

func TestLRNForwardKnown(t *testing.T) {
	ctx := NewContext()
	l, err := NewLRN("l", 3, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Single pixel, 2 channels, window 3 (half=1), k=1, α=1, β=1, n=3:
	// denom_0 = 1 + (1/3)(x0²+x1²), y_0 = x0/denom_0.
	x := tensor.MustFromSlice([]float32{3, 4}, 2, 1, 1)
	out, err := forward1(ctx, l, x)
	if err != nil {
		t.Fatal(err)
	}
	d0 := 1 + (9.0+16.0)/3
	if math.Abs(float64(out.At3(0, 0, 0))-3/d0) > 1e-6 {
		t.Errorf("lrn out0 = %v, want %v", out.At3(0, 0, 0), 3/d0)
	}
	if math.Abs(float64(out.At3(1, 0, 0))-4/d0) > 1e-6 {
		t.Errorf("lrn out1 = %v, want %v", out.At3(1, 0, 0), 4/d0)
	}
}

func TestLRNGradCheck(t *testing.T) {
	l := NewAlexNetLRN("l")
	rng := rand.New(rand.NewSource(10))
	gradCheckBatches(t, l, rng, -2, 2, 7, 3, 3)
}

func TestLRNValidation(t *testing.T) {
	ctx := NewContext()
	ctx.SetTraining(true)
	if _, err := NewLRN("l", 0, 1, 1, 1); err == nil {
		t.Error("window 0 should fail")
	}
	if _, err := NewLRN("l", 3, -1, 1, 1); err == nil {
		t.Error("negative k should fail")
	}
	if _, err := NewLRN("l", 3, 1, 1, 0); err == nil {
		t.Error("zero beta should fail")
	}
	l := NewAlexNetLRN("l")
	if _, err := forward1(ctx, l, tensor.MustNew(4)); err == nil {
		t.Error("rank-1 input should fail")
	}
	if _, err := backward1(ctx, l, tensor.MustNew(1, 1, 1)); err == nil {
		t.Error("backward before forward should fail")
	}
	if _, err := forward1(ctx, l, tensor.MustNew(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := backward1(ctx, l, tensor.MustNew(3, 2, 2)); err == nil {
		t.Error("wrong gradient shape should fail")
	}
}

func TestDropout(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(11))
	d, err := NewDropout("d", 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(1000)
	x.Fill(1)
	// Inference: identity.
	out, err := forward1(ctx, d, x)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(x) {
		t.Error("inference dropout should be identity")
	}
	g := tensor.MustNew(1000)
	g.Fill(1)
	dg, err := backward1(ctx, d, g)
	if err != nil {
		t.Fatal(err)
	}
	if !dg.Equal(g) {
		t.Error("inference dropout backward should be identity")
	}
	// Training: ~half dropped, survivors scaled ×2, expectation preserved.
	ctx.SetTraining(true)
	out, err = forward1(ctx, d, x)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range out.Data() {
		if v == 0 {
			zeros++
		} else if v != 2 {
			t.Fatalf("surviving activation = %v, want 2", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropped %d of 1000 at rate 0.5", zeros)
	}
	if m := out.Mean(); math.Abs(m-1) > 0.15 {
		t.Errorf("dropout mean = %v, want ~1 (inverted scaling)", m)
	}
	dg, err = backward1(ctx, d, g)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dg.Data() {
		if (out.Data()[i] == 0) != (v == 0) {
			t.Fatal("dropout backward mask must match forward mask")
		}
	}
	if _, err := NewDropout("d", 1.0, rng); err == nil {
		t.Error("rate 1 should fail")
	}
	if _, err := NewDropout("d", 0.5, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestCrossEntropyLoss(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{0, 0, 0}, 1, 3)
	loss, grad, err := CrossEntropyLossBatch(logits, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(3)) > 1e-6 {
		t.Errorf("uniform loss = %v, want ln 3", loss)
	}
	// Gradient sums to zero and is p − onehot.
	var sum float64
	for i, g := range grad.Data() {
		sum += float64(g)
		want := 1.0 / 3
		if i == 1 {
			want -= 1
		}
		if math.Abs(float64(g)-want) > 1e-6 {
			t.Errorf("grad[%d] = %v, want %v", i, g, want)
		}
	}
	if math.Abs(sum) > 1e-6 {
		t.Errorf("gradient sum = %v, want 0", sum)
	}
	if _, _, err := CrossEntropyLossBatch(logits, []int{5}); err == nil {
		t.Error("out-of-range label should fail")
	}
	if _, _, err := CrossEntropyLossBatch(tensor.MustNew(3), []int{0}); err == nil {
		t.Error("rank-1 logits should fail")
	}
}

func TestSoftmaxHelper(t *testing.T) {
	probs, err := Softmax(tensor.MustFromSlice([]float32{1, 1}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(probs[0])-0.5) > 1e-6 {
		t.Errorf("softmax = %v", probs)
	}
	if _, err := Softmax(tensor.MustNew(2, 2)); err == nil {
		t.Error("rank-2 should fail")
	}
}

func TestSequentialWiring(t *testing.T) {
	ctx := NewContext()
	ctx.SetTraining(true)
	rng := rand.New(rand.NewSource(12))
	net, err := NewMicroAlexNet(MicroConfig{
		InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3, Conv2Filters: 4,
		Hidden: 8, Classes: 3, UseLRN: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(1, 3, 16, 16)
	x.FillUniform(rng, 0, 1)
	logits, err := net.ForwardBatch(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Rank() != 2 || logits.Len() != 3 {
		t.Fatalf("logits shape %v", logits.Shape())
	}
	loss, grad, err := CrossEntropyLossBatch(logits, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Errorf("loss = %v, want > 0", loss)
	}
	net.ZeroGrads()
	dx, err := net.BackwardBatch(ctx, grad)
	if err != nil {
		t.Fatal(err)
	}
	if !dx.SameShape(x) {
		t.Errorf("input gradient shape %v", dx.Shape())
	}
	// Some parameter gradient must be nonzero.
	nonzero := false
	for _, p := range net.Params() {
		if p.Grad.L2Norm() > 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Error("all parameter gradients are zero after backward")
	}
	net.ZeroGrads()
	for _, p := range net.Params() {
		if p.Grad.L2Norm() != 0 {
			t.Error("ZeroGrads left a nonzero gradient")
		}
	}
	if net.Summary() == "" || net.ParamCount() == 0 || net.Len() == 0 {
		t.Error("summary/paramcount/len broken")
	}
}

// TestSequentialForwardFrom pins the mid-chain entry point the hybrid
// network uses to continue batches past the reliable prefix: running
// layer 0 then ForwardBatchFrom(1) must equal the full ForwardBatch bit for
// bit, at N=1 and N=5, and ForwardBatchRange must compose the same way.
func TestSequentialForwardFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := MicroConfig{InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3,
		Conv2Filters: 4, Hidden: 8, Classes: 3, UseLRN: false}
	net, err := NewMicroAlexNet(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := net.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	for _, n := range []int{1, 5} {
		_, batch := randBatch(t, rng, n, 3, 16, 16)
		full, err := net.ForwardBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		want := full.Clone()
		mid, err := conv.ForwardBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := net.ForwardBatchFrom(ctx, 1, mid)
		if err != nil {
			t.Fatal(err)
		}
		if i := sameBits(rest.Data(), want.Data()); i >= 0 {
			t.Fatalf("batch %d: ForwardBatchFrom differs from full forward at %d", n, i)
		}
		pre, err := net.ForwardBatchRange(ctx, 0, 2, batch)
		if err != nil {
			t.Fatal(err)
		}
		rest, err = net.ForwardBatchFrom(ctx, 2, pre)
		if err != nil {
			t.Fatal(err)
		}
		if i := sameBits(rest.Data(), want.Data()); i >= 0 {
			t.Fatalf("batch %d: ForwardBatchRange+From differs from full forward at %d", n, i)
		}
	}
	mid := tensor.MustNew(1, 4, 16, 16)
	if _, err := net.ForwardBatchFrom(ctx, -1, mid); err == nil {
		t.Error("negative from should fail")
	}
	if _, err := net.ForwardBatchRange(ctx, 2, 1, mid); err == nil {
		t.Error("to before from should fail")
	}
	if _, err := net.Layer(99); err == nil {
		t.Error("out-of-range layer should fail")
	}
}

func TestSequentialValidation(t *testing.T) {
	if _, err := NewSequential("empty"); err == nil {
		t.Error("empty sequential should fail")
	}
	if _, err := NewSequential("nil", nil); err == nil {
		t.Error("nil layer should fail")
	}
}

func TestPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net, err := NewMicroAlexNet(MicroConfig{
		InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3, Conv2Filters: 4,
		Hidden: 8, Classes: 4, UseLRN: false,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(3, 16, 16)
	x.FillUniform(rng, 0, 1)
	logits, err := forward1(NewContext(), net, x)
	if err != nil {
		t.Fatal(err)
	}
	probs, class, err := SoftmaxArgmax(logits)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 4 || class < 0 || class >= 4 {
		t.Fatalf("probs %v class %d", probs, class)
	}
	var sum float64
	for _, p := range probs {
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestMicroConfigValidate(t *testing.T) {
	if _, err := (MicroConfig{InputSize: 4, Conv1Filters: 1, Conv1Kernel: 3, Conv2Filters: 1, Hidden: 1, Classes: 2}).Validate(); err == nil {
		t.Error("tiny input should fail")
	}
	if _, err := (MicroConfig{InputSize: 32, Conv1Filters: 1, Conv1Kernel: 4, Conv2Filters: 1, Hidden: 1, Classes: 2}).Validate(); err == nil {
		t.Error("even kernel should fail")
	}
	if _, err := (MicroConfig{InputSize: 32, Conv1Filters: 1, Conv1Kernel: 3, Conv2Filters: 1, Hidden: 1, Classes: 1}).Validate(); err == nil {
		t.Error("one class should fail")
	}
	flat, err := DefaultMicroConfig().Validate()
	if err != nil || flat <= 0 {
		t.Errorf("default config invalid: %d, %v", flat, err)
	}
	if _, err := NewMicroAlexNet(DefaultMicroConfig(), nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestFirstConv(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "conv1" {
		t.Errorf("first conv = %q", c.Name())
	}
	flat, _ := NewSequential("noconv", NewReLU("r"))
	if _, err := FirstConv(flat); err == nil {
		t.Error("network without conv should fail")
	}
}

func TestSaveLoadWeights(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(16))
	cfg := MicroConfig{InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3,
		Conv2Filters: 4, Hidden: 8, Classes: 3, UseLRN: true}
	a, err := NewMicroAlexNet(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveWeights(a, &buf); err != nil {
		t.Fatal(err)
	}
	b, err := NewMicroAlexNet(cfg, rand.New(rand.NewSource(999)))
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(b, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, pa := range a.Params() {
		if !pa.Value.Equal(b.Params()[i].Value) {
			t.Fatalf("parameter %q differs after load", pa.Name)
		}
	}
	// Outputs agree.
	x := tensor.MustNew(3, 16, 16)
	x.FillUniform(rng, 0, 1)
	oa, err := forward1(ctx, a, x)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := forward1(ctx, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if !oa.Equal(ob) {
		t.Error("loaded network produces different output")
	}
}

func TestLoadWeightsRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := MicroConfig{InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3,
		Conv2Filters: 4, Hidden: 8, Classes: 3, UseLRN: false}
	a, _ := NewMicroAlexNet(cfg, rng)
	var buf bytes.Buffer
	if err := SaveWeights(a, &buf); err != nil {
		t.Fatal(err)
	}
	// Different architecture: more filters.
	cfg2 := cfg
	cfg2.Conv1Filters = 8
	b, _ := NewMicroAlexNet(cfg2, rng)
	if err := LoadWeights(b, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("shape mismatch should fail")
	}
	if err := LoadWeights(a, bytes.NewReader([]byte("garbage!"))); err == nil {
		t.Error("bad magic should fail")
	}
	if err := LoadWeights(a, bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail")
	}
}

func TestFullAlexNetConstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("full AlexNet allocates ~0.5 GB; skipped in -short")
	}
	rng := rand.New(rand.NewSource(18))
	net, err := NewAlexNet(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	// AlexNet has ~58 M parameters at 6 classes (fc8 is small).
	n := net.ParamCount()
	if n < 50_000_000 || n > 70_000_000 {
		t.Errorf("alexnet param count = %d, want ~58M", n)
	}
	conv1, err := FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	if conv1.Filters() != 96 || conv1.Kernel() != 11 || conv1.Stride() != 4 {
		t.Error("conv1 is not the paper's 96×11×11/4 layer")
	}
	if _, err := NewAlexNet(1, rng); err == nil {
		t.Error("one class should fail")
	}
	if _, err := NewAlexNet(6, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestAlexNetForwardShape(t *testing.T) {
	ctx := NewContext()
	if testing.Short() {
		t.Skip("full AlexNet forward is expensive; skipped in -short")
	}
	rng := rand.New(rand.NewSource(19))
	net, err := NewAlexNet(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(3, AlexNetInputSize, AlexNetInputSize)
	x.FillUniform(rng, 0, 1)
	logits, err := forward1(ctx, net, x)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Rank() != 1 || logits.Len() != 6 {
		t.Errorf("alexnet logits shape %v", logits.Shape())
	}
}
