package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// ForwardNaive computes the convolution of one CHW sample with the direct
// loop nest over (filter, y, x, channel, ky, kx). It allocates no cache and
// touches no context: it is the reference the im2col/GEMM path is
// equivalence-tested against, and the transcription of the textbook
// definition the dependability argument can be checked against.
func (c *Conv2D) ForwardNaive(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != c.inC {
		return nil, fmt.Errorf("nn: conv %q wants (%d,H,W) input, got %v", c.name, c.inC, x.Shape())
	}
	inH, inW := x.Dim(1), x.Dim(2)
	outH := tensor.ConvOut(inH, c.k, c.stride, c.pad)
	outW := tensor.ConvOut(inW, c.k, c.stride, c.pad)
	if outH < 1 || outW < 1 {
		return nil, fmt.Errorf("nn: conv %q kernel %d does not fit input %dx%d", c.name, c.k, inH, inW)
	}
	out := tensor.MustNew(c.outC, outH, outW)
	in, w, b, od := x.Data(), c.Weight().Data(), c.Bias().Data(), out.Data()
	for f := 0; f < c.outC; f++ {
		fBase := f * c.inC * c.k * c.k
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*c.stride - c.pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*c.stride - c.pad
				acc := b[f]
				for ch := 0; ch < c.inC; ch++ {
					chBase := ch * inH * inW
					kBase := fBase + ch*c.k*c.k
					for ky := 0; ky < c.k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						row := chBase + iy*inW
						kRow := kBase + ky*c.k
						for kx := 0; kx < c.k; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < inW {
								acc += in[row+ix] * w[kRow+kx]
							}
						}
					}
				}
				od[(f*outH+oy)*outW+ox] = acc
			}
		}
	}
	return out, nil
}

// batchOf returns x as an N=1 batch: a zero-copy (1, d₀, …) view.
func batchOf(x *tensor.Tensor) (*tensor.Tensor, error) {
	return x.Reshape(append([]int{1}, x.Shape()...)...)
}

// forward1 runs one sample through l as an N=1 batch and returns the
// sample's output.
func forward1(ctx *Context, l Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	b, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	out, err := l.ForwardBatch(ctx, b)
	if err != nil {
		return nil, err
	}
	return out.Sample(0)
}

// backward1 is forward1's backward counterpart: one sample's output
// gradient through BackwardBatch as an N=1 batch.
func backward1(ctx *Context, l Layer, g *tensor.Tensor) (*tensor.Tensor, error) {
	b, err := batchOf(g)
	if err != nil {
		return nil, err
	}
	dx, err := l.BackwardBatch(ctx, b)
	if err != nil {
		return nil, err
	}
	return dx.Sample(0)
}

// sameBits reports the first element where got and want differ in their
// float32 bit patterns (-1 when identical; lengths must match).
func sameBits(got, want []float32) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// Convolution kernels — the naive reference loop vs the im2col/GEMM path,
// on the paper's exact first AlexNet layer (96 × 11×11×3 over 227×227×3,
// stride 4), one image as an N=1 batch.

func convBenchWorkload(b *testing.B) (*Conv2D, *tensor.Tensor) {
	b.Helper()
	rng := rand.New(rand.NewSource(20))
	c, err := NewConv2D("conv1", 3, AlexNetConv1Filters, 11, 4, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.MustNew(3, AlexNetInputSize, AlexNetInputSize)
	x.FillUniform(rng, 0, 1)
	return c, x
}

func BenchmarkConvForward_Naive(b *testing.B) {
	c, x := convBenchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ForwardNaive(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvForward_Im2col(b *testing.B) {
	c, x := convBenchWorkload(b)
	ctx := NewContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forward1(ctx, c, x); err != nil {
			b.Fatal(err)
		}
	}
}
