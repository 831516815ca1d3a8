// Package nn is the from-scratch CNN framework the reproduction trains and
// executes hybrid networks with. It provides the layers AlexNet needs
// (convolution, ReLU, local response normalisation, max pooling, dense,
// dropout), forward/backward passes, cross-entropy loss and weight
// serialisation.
//
// Batched is the only execution path: every layer consumes an NCHW (or N×K
// flat) batch, and a single sample is an N=1 batch (a zero-copy reshape
// view of the sample). ForwardBatch vectorises across the batch —
// convolution lowers all N samples into ONE blocked GEMM per layer
// (tensor.Im2colBatch), dense layers stream their weight matrix once per
// batch (tensor.Linear) — and, in training contexts, caches the state
// BackwardBatch consumes, so a whole mini-batch trains with one GEMM per
// layer per direction (dW = dY·Xᵀ, dX = Wᵀ·dY, tensor.Col2imBatch for the
// convolution scatter). No kernel's per-element arithmetic depends on N,
// so a sample's outputs are bit-identical alone or inside any batch.
// Layers hold only immutable parameters — every per-call cache and scratch
// buffer lives in the Context threaded through the passes — so one network
// can serve any number of concurrent passes, one Context per goroutine.
package nn

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// Param is one learnable tensor with its gradient accumulator. Gradients are
// accumulated (+=) by BackwardBatch and cleared by ZeroGrad. Layers build
// their Params once, so Params() returns stable pointers.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// newParam returns a zero-valued parameter with a zero gradient.
func newParam(name string, shape ...int) (*Param, error) {
	v, err := tensor.New(shape...)
	if err != nil {
		return nil, err
	}
	return &Param{Name: name, Value: v, Grad: tensor.MustNew(shape...)}, nil
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module over batches. ForwardBatch caches
// whatever BackwardBatch needs in ctx; BackwardBatch consumes the gradient
// w.r.t. the layer's output and returns the gradient w.r.t. its input,
// accumulating parameter gradients (into the canonical Grad tensors, or the
// context's shadow buffers — see Context.ShadowGrads) as a side effect.
//
// Layers ARE safe for concurrent shared-weight use: all mutable per-call
// state lives in the Context, so goroutines running the same layer must
// simply not share a Context.
type Layer interface {
	// Name identifies the layer in summaries and serialised models.
	Name() string
	// ForwardBatch computes the layer output for an NCHW (or N×K flat)
	// batch, one output sample per input sample. In inference contexts it
	// caches no backward state; in training contexts (ctx.Training()) it
	// caches the state BackwardBatch consumes. Batch-sized scratch lives
	// in ctx and is reused across calls.
	ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error)
	// BackwardBatch computes the batch input gradient from the batch
	// output gradient. It must be called on the same Context after a
	// training-mode ForwardBatch, with a gradient matching the output
	// shape.
	BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	name   string
	layers []Layer
}

// NewSequential returns a named layer chain.
func NewSequential(name string, layers ...Layer) (*Sequential, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: sequential %q needs at least one layer", name)
	}
	for i, l := range layers {
		if l == nil {
			return nil, fmt.Errorf("nn: sequential %q layer %d is nil", name, i)
		}
	}
	return &Sequential{name: name, layers: layers}, nil
}

// Name returns the network name.
func (s *Sequential) Name() string { return s.name }

// Layers returns the underlying layer slice (shared; callers must not
// mutate it structurally).
func (s *Sequential) Layers() []Layer { return s.layers }

// Layer returns the i-th layer.
func (s *Sequential) Layer(i int) (Layer, error) {
	if i < 0 || i >= len(s.layers) {
		return nil, fmt.Errorf("nn: layer index %d out of range [0,%d)", i, len(s.layers))
	}
	return s.layers[i], nil
}

// Len returns the number of layers.
func (s *Sequential) Len() int { return len(s.layers) }

// ForwardBatch runs the full chain over an NCHW batch through ctx: one GEMM
// per convolution/dense layer for all N samples.
func (s *Sequential) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.ForwardBatchFrom(ctx, 0, x)
}

// ForwardBatchFrom runs the chain starting at layer index from (inclusive) —
// the hybrid network's entry point for continuing a batch of
// classifications from the reliably computed DCNN outputs.
func (s *Sequential) ForwardBatchFrom(ctx *Context, from int, x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.ForwardBatchRange(ctx, from, len(s.layers), x)
}

// ForwardBatchRange runs the chain over layers [from, to) — the
// half-open prefix a fast-pipeline image runs non-reliably so it can
// coalesce with reliably computed feature maps at layer to.
func (s *Sequential) ForwardBatchRange(ctx *Context, from, to int, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: forward needs a context")
	}
	if from < 0 || from > len(s.layers) {
		return nil, fmt.Errorf("nn: forward-from index %d out of range [0,%d]", from, len(s.layers))
	}
	if to < from || to > len(s.layers) {
		return nil, fmt.Errorf("nn: forward-to index %d out of range [%d,%d]", to, from, len(s.layers))
	}
	var err error
	for i := from; i < to; i++ {
		x, err = s.layers[i].ForwardBatch(ctx, x)
		if err != nil {
			return nil, fmt.Errorf("nn: forward layer %d (%s): %w", i, s.layers[i].Name(), err)
		}
	}
	return x, nil
}

// BackwardBatch propagates the batch output gradient through the chain in
// reverse, using the caches a training-mode ForwardBatch left in ctx — one
// GEMM per parameterised layer for the whole mini-batch.
func (s *Sequential) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: backward needs a context")
	}
	var err error
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad, err = s.layers[i].BackwardBatch(ctx, grad)
		if err != nil {
			return nil, fmt.Errorf("nn: backward layer %d (%s): %w", i, s.layers[i].Name(), err)
		}
	}
	return grad, nil
}

// Params returns all learnable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ParamCount returns the total number of learnable scalars.
func (s *Sequential) ParamCount() int {
	n := 0
	for _, p := range s.Params() {
		n += p.Value.Len()
	}
	return n
}

// ZeroGrads clears every parameter gradient.
func (s *Sequential) ZeroGrads() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// Summary renders a human-readable table of the network structure.
func (s *Sequential) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d layers, %d params)\n", s.name, len(s.layers), s.ParamCount())
	for i, l := range s.layers {
		n := 0
		for _, p := range l.Params() {
			n += p.Value.Len()
		}
		fmt.Fprintf(&b, "  %2d  %-14s %8d params\n", i, l.Name(), n)
	}
	return b.String()
}
