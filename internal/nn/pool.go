package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MaxPool2D is a max-pooling layer over NCHW batches. AlexNet uses overlapping
// 3×3/stride-2 pooling; the micro networks use 2×2/stride-2.
type MaxPool2D struct {
	name   string
	k      int
	stride int
}

// poolState is the per-context forward cache (training contexts only).
type poolState struct {
	inShape    []int
	argmax     []int // absolute input index of each output's max
	n, c       int
	outH, outW int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D returns a max-pooling layer with a square window.
func NewMaxPool2D(name string, k, stride int) (*MaxPool2D, error) {
	if k < 1 {
		return nil, fmt.Errorf("nn: pool %q window %d must be >= 1", name, k)
	}
	if stride < 1 {
		return nil, fmt.Errorf("nn: pool %q stride %d must be >= 1", name, stride)
	}
	return &MaxPool2D{name: name, k: k, stride: stride}, nil
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// poolPlane sweeps the max window over one (h, w) plane starting at pBase
// of in, writing outputs from oBase of out. argmax, when non-nil, receives
// each output's linear input index (absolute in in) for BackwardBatch.
func (p *MaxPool2D) poolPlane(in, out []float32, argmax []int, pBase, oBase, w, outH, outW int) {
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			best := float32(math.Inf(-1))
			bestIdx := -1
			for ky := 0; ky < p.k; ky++ {
				row := pBase + (oy*p.stride+ky)*w
				for kx := 0; kx < p.k; kx++ {
					ix := ox*p.stride + kx
					if v := in[row+ix]; v > best {
						best = v
						bestIdx = row + ix
					}
				}
			}
			oIdx := oBase + oy*outW + ox
			out[oIdx] = best
			if argmax != nil {
				argmax[oIdx] = bestIdx
			}
		}
	}
}

// ForwardBatch implements Layer over an NCHW batch. Pooling is independent
// per (sample, channel) plane, so the pass sweeps all N·C planes of the
// packed batch. In training contexts the argmax (absolute indices into the
// packed batch) is cached for BackwardBatch; inference contexts cache
// nothing.
func (p *MaxPool2D) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: pool %q forward needs a context", p.name)
	}
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: pool %q wants NCHW batch, got %v", p.name, x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h < p.k || w < p.k {
		return nil, fmt.Errorf("nn: pool %q window %d does not fit input %dx%d", p.name, p.k, h, w)
	}
	outH := (h-p.k)/p.stride + 1
	outW := (w-p.k)/p.stride + 1
	out := tensor.MustNew(n, c, outH, outW)
	in, od := x.Data(), out.Data()
	var argmax []int
	st := ctx.state(p, func() any { return &poolState{} }).(*poolState)
	if ctx.Training() {
		argmax = tensor.GrowSlice(st.argmax, n*c*outH*outW)
		st.inShape = x.Shape()
		st.n, st.c, st.outH, st.outW = n, c, outH, outW
	}
	st.argmax = argmax
	for plane := 0; plane < n*c; plane++ {
		p.poolPlane(in, od, argmax, plane*h*w, plane*outH*outW, w, outH, outW)
	}
	return out, nil
}

// BackwardBatch implements Layer: the gradient routes to each window's
// cached argmax.
func (p *MaxPool2D) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: pool %q backward needs a context", p.name)
	}
	st, ok := ctx.states[p].(*poolState)
	if !ok || st.argmax == nil {
		return nil, fmt.Errorf("nn: pool %q backward before training-mode forward", p.name)
	}
	if grad.Rank() != 4 || grad.Dim(0) != st.n || grad.Dim(1) != st.c ||
		grad.Dim(2) != st.outH || grad.Dim(3) != st.outW {
		return nil, fmt.Errorf("nn: pool %q wants (%d,%d,%d,%d) gradient, got %v",
			p.name, st.n, st.c, st.outH, st.outW, grad.Shape())
	}
	dx := tensor.MustNew(st.inShape...)
	dxd, g := dx.Data(), grad.Data()
	for i, src := range st.argmax {
		dxd[src] += g[i]
	}
	return dx, nil
}

// ReLU is the rectified linear activation.
type ReLU struct {
	name string
}

// reluState is the per-context activation mask (training contexts only).
type reluState struct {
	mask []bool
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// ForwardBatch implements Layer: ReLU is element-wise, so the pass is one
// clamp sweep over the packed batch (non-positive and NaN clamp to 0). In
// training contexts the activation mask is cached for BackwardBatch;
// inference contexts cache nothing.
func (r *ReLU) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: relu %q forward needs a context", r.name)
	}
	st := ctx.state(r, func() any { return &reluState{} }).(*reluState)
	out := x.Clone()
	d := out.Data()
	if !ctx.Training() {
		st.mask = nil
		for i, v := range d {
			if !(v > 0) {
				d[i] = 0
			}
		}
		return out, nil
	}
	st.mask = tensor.GrowSlice(st.mask, len(d))
	for i, v := range d {
		st.mask[i] = v > 0
		if !st.mask[i] {
			d[i] = 0
		}
	}
	return out, nil
}

// BackwardBatch implements Layer: the gradient gates on the cached
// activation mask.
func (r *ReLU) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: relu %q backward needs a context", r.name)
	}
	st, ok := ctx.states[r].(*reluState)
	if !ok || st.mask == nil {
		return nil, fmt.Errorf("nn: relu %q backward before training-mode forward", r.name)
	}
	if grad.Len() != len(st.mask) {
		return nil, fmt.Errorf("nn: relu %q gradient length %d != cached %d",
			r.name, grad.Len(), len(st.mask))
	}
	dx := grad.Clone()
	d := dx.Data()
	for i, on := range st.mask {
		if !on {
			d[i] = 0
		}
	}
	return dx, nil
}

// Flatten reshapes an (N, C, H, W) batch to (N, C·H·W).
type Flatten struct {
	name string
}

// flattenState is the per-context input-shape cache (training contexts
// only).
type flattenState struct {
	dims []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// ForwardBatch implements Layer: an (N, C, H, W) batch reshapes to
// (N, C·H·W), one flat row per sample (a view, no copy). In training
// contexts the input shape is cached so BackwardBatch can reverse it.
func (f *Flatten) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: flatten %q forward needs a context", f.name)
	}
	if x.Rank() < 2 {
		return nil, fmt.Errorf("nn: flatten %q wants a batch of rank >= 2, got %v", f.name, x.Shape())
	}
	st := ctx.state(f, func() any { return &flattenState{} }).(*flattenState)
	st.dims = nil
	if ctx.Training() {
		st.dims = x.Shape()
	}
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// BackwardBatch implements Layer: the gradient reshapes back to the cached
// input shape (a view, no copy).
func (f *Flatten) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: flatten %q backward needs a context", f.name)
	}
	st, ok := ctx.states[f].(*flattenState)
	if !ok || st.dims == nil {
		return nil, fmt.Errorf("nn: flatten %q backward before training-mode forward", f.name)
	}
	return grad.Reshape(st.dims...)
}

// Kernel returns the pooling window side.
func (p *MaxPool2D) Kernel() int { return p.k }

// Stride returns the pooling stride.
func (p *MaxPool2D) Stride() int { return p.stride }
