package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// Dense is a fully connected layer over (N, in) batches: Y = X·Wᵀ + b.
type Dense struct {
	name    string
	in, out int
	weight  *Param // (out, in)
	bias    *Param // (out)
}

// denseState is the per-context forward cache.
type denseState struct {
	lastIn *tensor.Tensor // training contexts only
}

var _ Layer = (*Dense)(nil)

// NewDense returns a He-initialised dense layer.
func NewDense(name string, in, out int, rng *rand.Rand) (*Dense, error) {
	if in < 1 || out < 1 {
		return nil, fmt.Errorf("nn: dense %q dims (%d→%d) must be >= 1", name, in, out)
	}
	if rng == nil {
		return nil, fmt.Errorf("nn: dense %q needs an rng", name)
	}
	w, err := newParam(name+".weight", out, in)
	if err != nil {
		return nil, err
	}
	w.Value.FillHe(rng, in)
	b, err := newParam(name+".bias", out)
	if err != nil {
		return nil, err
	}
	return &Dense{name: name, in: in, out: out, weight: w, bias: b}, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Weight returns the (out, in) weight matrix (shared storage).
func (d *Dense) Weight() *tensor.Tensor { return d.weight.Value }

// Bias returns the bias vector (shared storage).
func (d *Dense) Bias() *tensor.Tensor { return d.bias.Value }

// Params implements Layer. The two parameters are built once, so every
// call returns the same pointers (optimiser state keys on them).
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// ForwardBatch implements Layer over an (N, in) batch: one tensor.Linear
// call computes X·Wᵀ + b for all N rows (bias seed, then ascending input
// index, whatever N is), streaming the weight matrix — by far the largest
// tensor in the fully connected layers — once per batch instead of once
// per sample. In training contexts the input batch is kept for
// BackwardBatch; inference contexts cache no backward state.
func (d *Dense) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: dense %q forward needs a context", d.name)
	}
	if x.Rank() != 2 || x.Dim(1) != d.in {
		return nil, fmt.Errorf("nn: dense %q wants (N,%d) batch, got %v", d.name, d.in, x.Shape())
	}
	n := x.Dim(0)
	st := ctx.state(d, func() any { return &denseState{} }).(*denseState)
	st.lastIn = nil
	if ctx.Training() {
		st.lastIn = x
	}
	out := tensor.MustNew(n, d.out)
	tensor.Linear(out.Data(), x.Data(), d.weight.Value.Data(), d.bias.Value.Data(), n, d.in, d.out)
	return out, nil
}

// BackwardBatch implements Layer over an (N, out) gradient batch with three
// batch-wide kernels: dB is one tensor.AddColSums reduction (row after
// row), dW += Gᵀ·X is ONE GemmTA, and dX = G·W is ONE Gemm — the weight
// matrix is streamed twice per mini-batch instead of twice per sample,
// which is where fc-heavy training gets its batched win.
func (d *Dense) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: dense %q backward needs a context", d.name)
	}
	st, ok := ctx.states[d].(*denseState)
	if !ok || st.lastIn == nil {
		return nil, fmt.Errorf("nn: dense %q backward before training-mode forward", d.name)
	}
	n := st.lastIn.Dim(0)
	if grad.Rank() != 2 || grad.Dim(0) != n || grad.Dim(1) != d.out {
		return nil, fmt.Errorf("nn: dense %q wants (%d,%d) gradient, got %v", d.name, n, d.out, grad.Shape())
	}
	g, x, w := grad.Data(), st.lastIn.Data(), d.weight.Value.Data()
	dw := ctx.gradBuf(d.weight.Grad).Data()
	db := ctx.gradBuf(d.bias.Grad).Data()
	if err := tensor.AddColSums(db, g, n, d.out); err != nil {
		return nil, fmt.Errorf("nn: dense %q: %w", d.name, err)
	}
	tensor.GemmTA(dw, g, x, d.out, n, d.in)
	dx := tensor.MustNew(n, d.in)
	tensor.Gemm(dx.Data(), g, w, n, d.out, d.in)
	return dx, nil
}

// Dropout zeroes activations with probability Rate in training contexts and
// is the identity at inference (inverted dropout: surviving activations are
// scaled by 1/(1−Rate) so inference needs no rescaling). The mask is drawn
// from the context RNG when one is set (per-worker determinism in parallel
// training); contexts without an RNG fall back to the layer's construction
// RNG under a mutex, so concurrent training contexts that forgot SetRand
// stay race-free (merely serialised on the mask draw).
type Dropout struct {
	name string
	rate float32
	mu   sync.Mutex // guards rng: shared fallback for RNG-less contexts
	rng  *rand.Rand
}

// dropoutState is the per-context mask cache (training contexts only).
type dropoutState struct {
	mask []float32
}

var _ Layer = (*Dropout)(nil)

// NewDropout returns a dropout layer with drop probability rate in [0, 1).
func NewDropout(name string, rate float32, rng *rand.Rand) (*Dropout, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("nn: dropout %q rate %v out of [0,1)", name, rate)
	}
	if rng == nil {
		return nil, fmt.Errorf("nn: dropout %q needs an rng", name)
	}
	return &Dropout{name: name, rate: rate, rng: rng}, nil
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// ForwardBatch implements Layer. Dropout is element-wise: the identity at
// inference, a fresh inverted-dropout mask over every element of the batch
// in training contexts (drawn element-ascending), cached for
// BackwardBatch.
func (d *Dropout) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: dropout %q forward needs a context", d.name)
	}
	st := ctx.state(d, func() any { return &dropoutState{} }).(*dropoutState)
	if !ctx.Training() || d.rate == 0 {
		st.mask = nil
		return x, nil
	}
	rng := ctx.Rand()
	if rng == nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		rng = d.rng
	}
	out := x.Clone()
	data := out.Data()
	st.mask = make([]float32, len(data))
	keep := 1 - d.rate
	inv := 1 / keep
	for i := range data {
		if rng.Float32() < keep {
			st.mask[i] = inv
			data[i] *= inv
		} else {
			data[i] = 0
		}
	}
	return out, nil
}

// BackwardBatch implements Layer: the gradient scales by the cached mask
// (identity in inference contexts).
func (d *Dropout) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: dropout %q backward needs a context", d.name)
	}
	st, ok := ctx.states[d].(*dropoutState)
	if !ok || st.mask == nil {
		return grad, nil // inference mode: identity
	}
	if grad.Len() != len(st.mask) {
		return nil, fmt.Errorf("nn: dropout %q gradient length %d != cached %d",
			d.name, grad.Len(), len(st.mask))
	}
	dx := grad.Clone()
	data := dx.Data()
	for i, m := range st.mask {
		data[i] *= m
	}
	return dx, nil
}

// In returns the input width.
func (d *Dense) In() int { return d.in }

// Out returns the output width.
func (d *Dense) Out() int { return d.out }

// Rate returns the dropout probability.
func (d *Dropout) Rate() float32 { return d.rate }
