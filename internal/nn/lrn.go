package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// LRN is AlexNet's local response normalisation across channels:
//
//	y_i = x_i / (k + (α/n)·Σ_{j∈window(i)} x_j²)^β
//
// where the window spans n channels centred on i (clipped at the ends).
type LRN struct {
	name  string
	n     int
	k     float64
	alpha float64
	beta  float64
}

// lrnState is the per-context forward cache (training contexts only).
type lrnState struct {
	lastIn *tensor.Tensor
	denom  []float64 // k + (α/n)Σx² per element
}

var _ Layer = (*LRN)(nil)

// NewLRN returns an LRN layer. AlexNet's published constants are
// n=5, k=2, α=1e-4, β=0.75.
func NewLRN(name string, n int, k, alpha, beta float64) (*LRN, error) {
	if n < 1 {
		return nil, fmt.Errorf("nn: lrn %q window %d must be >= 1", name, n)
	}
	if k < 0 || alpha < 0 || beta <= 0 {
		return nil, fmt.Errorf("nn: lrn %q constants (k=%v α=%v β=%v) invalid", name, k, alpha, beta)
	}
	return &LRN{name: name, n: n, k: k, alpha: alpha, beta: beta}, nil
}

// NewAlexNetLRN returns an LRN layer with the AlexNet paper's constants.
func NewAlexNetLRN(name string) *LRN {
	l, err := NewLRN(name, 5, 2, 1e-4, 0.75)
	if err != nil {
		// Unreachable: the constants are valid by construction.
		panic(err)
	}
	return l
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }

// normalize applies the LRN kernel to one CHW sample (c channels of hw
// elements). When denom is non-nil it receives the per-element
// k + (α/n)Σx² cache BackwardBatch consumes.
func (l *LRN) normalize(in, od []float32, c, hw int, denom []float64) {
	half := l.n / 2
	for pos := 0; pos < hw; pos++ {
		for ch := 0; ch < c; ch++ {
			lo := ch - half
			if lo < 0 {
				lo = 0
			}
			hi := ch + half
			if hi >= c {
				hi = c - 1
			}
			var ss float64
			for j := lo; j <= hi; j++ {
				v := float64(in[j*hw+pos])
				ss += v * v
			}
			d := l.k + l.alpha/float64(l.n)*ss
			idx := ch*hw + pos
			if denom != nil {
				denom[idx] = d
			}
			od[idx] = float32(float64(in[idx]) * math.Pow(d, -l.beta))
		}
	}
}

// ForwardBatch implements Layer over an NCHW batch: normalisation windows
// span channels within a sample, so the kernel runs over each of the N
// packed samples. In training contexts the input and the denominator cache
// are kept for BackwardBatch; inference contexts cache nothing.
func (l *LRN) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: lrn %q forward needs a context", l.name)
	}
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: lrn %q wants NCHW batch, got %v", l.name, x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	st := ctx.state(l, func() any { return &lrnState{} }).(*lrnState)
	st.lastIn = nil
	if ctx.Training() {
		st.lastIn = x
		st.denom = tensor.GrowSlice(st.denom, n*c*h*w)
	}
	out := tensor.MustNew(n, c, h, w)
	in, od := x.Data(), out.Data()
	chw := c * h * w
	for s := 0; s < n; s++ {
		var denom []float64
		if st.lastIn != nil {
			denom = st.denom[s*chw : (s+1)*chw]
		}
		l.normalize(in[s*chw:(s+1)*chw], od[s*chw:(s+1)*chw], c, h*w, denom)
	}
	return out, nil
}

// backwardSample applies the exact LRN derivative to one CHW sample (c
// channels of hw elements) given its forward denominator cache:
//
//	dx_m = g_m·denom_m^{-β} − (2αβ/n)·x_m·Σ_{i: m∈window(i)} g_i·x_i·denom_i^{-β-1}
func (l *LRN) backwardSample(in, g, dxd []float32, denom []float64, c, hw int) {
	half := l.n / 2
	scale := 2 * l.alpha * l.beta / float64(l.n)
	for pos := 0; pos < hw; pos++ {
		// Precompute g_i · x_i · denom_i^{-β-1} per channel at this pixel.
		gi := make([]float64, c)
		for ch := 0; ch < c; ch++ {
			idx := ch*hw + pos
			gi[ch] = float64(g[idx]) * float64(in[idx]) * math.Pow(denom[idx], -l.beta-1)
		}
		for m := 0; m < c; m++ {
			idx := m*hw + pos
			direct := float64(g[idx]) * math.Pow(denom[idx], -l.beta)
			// Channels i whose window contains m: |i − m| <= half.
			lo := m - half
			if lo < 0 {
				lo = 0
			}
			hi := m + half
			if hi >= c {
				hi = c - 1
			}
			var cross float64
			for i := lo; i <= hi; i++ {
				cross += gi[i]
			}
			dxd[idx] = float32(direct - scale*float64(in[idx])*cross)
		}
	}
}

// BackwardBatch implements Layer: windows never cross samples, so the
// derivative runs over each packed sample with its slice of the
// denominator cache.
func (l *LRN) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: lrn %q backward needs a context", l.name)
	}
	st, ok := ctx.states[l].(*lrnState)
	if !ok || st.lastIn == nil {
		return nil, fmt.Errorf("nn: lrn %q backward before training-mode forward", l.name)
	}
	if !grad.SameShape(st.lastIn) {
		return nil, fmt.Errorf("nn: lrn %q gradient shape %v != input %v",
			l.name, grad.Shape(), st.lastIn.Shape())
	}
	n, c, h, w := st.lastIn.Dim(0), st.lastIn.Dim(1), st.lastIn.Dim(2), st.lastIn.Dim(3)
	dx := tensor.MustNew(n, c, h, w)
	in, g, dxd := st.lastIn.Data(), grad.Data(), dx.Data()
	chw := c * h * w
	for s := 0; s < n; s++ {
		l.backwardSample(in[s*chw:(s+1)*chw], g[s*chw:(s+1)*chw], dxd[s*chw:(s+1)*chw],
			st.denom[s*chw:(s+1)*chw], c, h*w)
	}
	return dx, nil
}

// Window returns the channel window size n.
func (l *LRN) Window() int { return l.n }

// Constants returns the (k, α, β) constants.
func (l *LRN) Constants() (k, alpha, beta float64) { return l.k, l.alpha, l.beta }
