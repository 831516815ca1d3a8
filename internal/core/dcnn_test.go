package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/shape"
	"repro/internal/tensor"
)

func prefixNet(t *testing.T, useLRN bool) *nn.Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3,
		Conv2Filters: 4, Hidden: 8, Classes: 3, UseLRN: useLRN,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func idealEngine(t *testing.T) *reliable.Engine {
	t.Helper()
	ops, err := reliable.NewPlain(fault.Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := reliable.NewEngine(ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The load-bearing equivalence: on fault-free hardware the reliable prefix
// computes exactly what the plain framework computes, for EVERY depth and
// every layer type (conv, relu, lrn, pool, flatten, dense).
func TestExecutePrefixMatchesPlainForward(t *testing.T) {
	for _, useLRN := range []bool{false, true} {
		net := prefixNet(t, useLRN)
		rng := rand.New(rand.NewSource(56))
		x := tensor.MustNew(3, 16, 16)
		x.FillUniform(rng, 0, 1)
		for depth := 0; depth <= net.Len(); depth++ {
			e := idealEngine(t)
			got, err := ExecutePrefix(e, net, depth, x)
			if err != nil {
				t.Fatalf("lrn=%v depth %d: %v", useLRN, depth, err)
			}
			// Plain reference: forward the first depth layers, x as an
			// N=1 batch.
			x1, err := x.Reshape(1, 3, 16, 16)
			if err != nil {
				t.Fatal(err)
			}
			want1, err := net.ForwardBatchRange(nn.NewContext(), 0, depth, x1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := want1.Sample(0)
			if err != nil {
				t.Fatal(err)
			}
			if !want.AllClose(got, 2e-5) {
				d, _ := want.MaxAbsDiff(got)
				t.Fatalf("lrn=%v depth %d: reliable prefix diverges by %v", useLRN, depth, d)
			}
			if depth > 0 && e.Stats().Ops == 0 {
				t.Fatalf("depth %d executed no reliable operations", depth)
			}
		}
	}
}

func TestExecutePrefixValidation(t *testing.T) {
	net := prefixNet(t, false)
	e := idealEngine(t)
	x := tensor.MustNew(3, 16, 16)
	if _, err := ExecutePrefix(nil, net, 1, x); err == nil {
		t.Error("nil engine should fail")
	}
	if _, err := ExecutePrefix(e, nil, 1, x); err == nil {
		t.Error("nil net should fail")
	}
	if _, err := ExecutePrefix(e, net, -1, x); err == nil {
		t.Error("negative depth should fail")
	}
	if _, err := ExecutePrefix(e, net, 99, x); err == nil {
		t.Error("excess depth should fail")
	}
	if _, err := ExecutePrefixFrom(e, net, 3, 1, x); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := ExecutePrefixFrom(nil, net, 0, 1, x); err == nil {
		t.Error("nil engine range should fail")
	}
}

func TestReliableLayersDetectFaults(t *testing.T) {
	// A single transient fault anywhere in the prefix is corrected; the
	// output still matches a fault-free reliable execution exactly. (The
	// reference is the reliable engine itself, not nn.Forward: the SIMD
	// GEMM path's fused multiply-adds round differently from the reliable
	// ops' scalar MAC chain, so plain-forward equality is only ever
	// tolerance-based — see TestExecutePrefixMatchesPlainForward.)
	net := prefixNet(t, false)
	rng := rand.New(rand.NewSource(57))
	x := tensor.MustNew(3, 16, 16)
	x.FillUniform(rng, 0, 1)
	want, err := ExecutePrefix(idealEngine(t), net, net.Len(), x)
	if err != nil {
		t.Fatal(err)
	}

	alu, err := fault.NewOnceAfter(3000, fault.BitFlip{Bit: 29}, rand.New(rand.NewSource(58)))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := reliable.NewTemporalDMR(alu)
	if err != nil {
		t.Fatal(err)
	}
	e, err := reliable.NewEngine(ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecutePrefix(e, net, net.Len(), x)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Error("corrected fault should leave the full reliable forward exact")
	}
	if e.Stats().Retries != 1 {
		t.Errorf("retries = %d, want 1", e.Stats().Retries)
	}
	if !alu.Fired() {
		t.Error("fault never injected — test is vacuous")
	}
}

func TestReliablePrefixAbortsUnderSaturation(t *testing.T) {
	net := prefixNet(t, false)
	rng := rand.New(rand.NewSource(59))
	x := tensor.MustNew(3, 16, 16)
	x.FillUniform(rng, 0, 1)
	alu, err := fault.NewTransient(1, fault.WordRandom{}, rand.New(rand.NewSource(60)))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := reliable.NewTemporalDMR(alu)
	if err != nil {
		t.Fatal(err)
	}
	e, err := reliable.NewEngine(ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecutePrefix(e, net, net.Len(), x); !errors.Is(err, reliable.ErrBucketTripped) {
		t.Fatalf("want bucket trip, got %v", err)
	}
}

func TestPrefixCostMatchesMeasuredOps(t *testing.T) {
	net := prefixNet(t, true)
	rng := rand.New(rand.NewSource(61))
	x := tensor.MustNew(3, 16, 16)
	x.FillUniform(rng, 0, 1)
	for depth := 1; depth <= net.Len(); depth++ {
		predicted, err := PrefixCost(net, depth, []int{3, 16, 16})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		e := idealEngine(t)
		if _, err := ExecutePrefix(e, net, depth, x); err != nil {
			t.Fatal(err)
		}
		measured := e.Stats().Ops
		// The cost model is an upper-bound estimate for LRN (window
		// clipping at channel edges) — allow 30% slack there, exactness
		// elsewhere would require modelling the clipping.
		lo := float64(predicted) * 0.7
		if float64(measured) > float64(predicted) || float64(measured) < lo {
			t.Errorf("depth %d: predicted %d ops, measured %d", depth, predicted, measured)
		}
	}
	if _, err := PrefixCost(nil, 1, nil); err == nil {
		t.Error("nil net should fail")
	}
	if _, err := PrefixCost(net, 99, []int{3, 16, 16}); err == nil {
		t.Error("excess depth should fail")
	}
	if _, err := PrefixCost(net, 1, []int{16, 16}); err == nil {
		t.Error("rank-2 input for conv should fail")
	}
}

func TestHybridDeepDCNN(t *testing.T) {
	// Bifurcated hybrid with the DCNN extended through conv1→relu→pool:
	// the verdicts must agree with the depth-1 hybrid on fault-free
	// hardware (the extra depth changes cost, not results).
	rng := rand.New(rand.NewSource(62))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 64, Conv1Filters: 6, Conv1Kernel: 5,
		Conv2Filters: 6, Hidden: 12, Classes: 6, UseLRN: false,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := InstallSobelPair(conv1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(depth int) *HybridNetwork {
		h, err := NewHybridNetwork(Config{
			Wiring: WiringBifurcated, Mode: ModeTemporalDMR,
			Pair: pair, DCNNDepth: depth,
			SafetyClasses: defaultSafety(),
		}, net)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	img, err := gtsrb.AngledStopSign(64, rand.New(rand.NewSource(63)))
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := mk(1).Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := mk(3).Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if shallow.Class != deep.Class || shallow.Decision != deep.Decision {
		t.Errorf("depth changed the verdict: (%d,%v) vs (%d,%v)",
			shallow.Class, shallow.Decision, deep.Class, deep.Decision)
	}
	if deep.Stats.Ops <= shallow.Stats.Ops {
		t.Errorf("deeper DCNN should cost more: %d vs %d ops", deep.Stats.Ops, shallow.Stats.Ops)
	}
	if shallow.Qualifier.Class != shape.ClassOctagon {
		t.Errorf("qualifier = %v, want octagon", shallow.Qualifier.Class)
	}
	// Depth out of range is rejected.
	if _, err := NewHybridNetwork(Config{
		Wiring: WiringBifurcated, Mode: ModePlain, Pair: pair,
		DCNNDepth: 99, SafetyClasses: defaultSafety(),
	}, net); err == nil {
		t.Error("excess DCNN depth should fail")
	}
}

func TestReliableLayerPrimitivesValidation(t *testing.T) {
	e := idealEngine(t)
	x := tensor.MustNew(4)
	w := tensor.MustNew(2, 4)
	if _, err := reliable.Dense(nil, x, w, nil); err == nil {
		t.Error("nil engine dense should fail")
	}
	if _, err := reliable.Dense(e, tensor.MustNew(3), w, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := reliable.Dense(e, x, tensor.MustNew(4), nil); err == nil {
		t.Error("rank-1 weight should fail")
	}
	if _, err := reliable.Dense(e, x, w, []float32{1}); err == nil {
		t.Error("short bias should fail")
	}
	if _, err := reliable.ReLU(nil, x); err == nil {
		t.Error("nil engine relu should fail")
	}
	chw := tensor.MustNew(1, 4, 4)
	if _, err := reliable.MaxPool2D(nil, chw, 2, 2); err == nil {
		t.Error("nil engine pool should fail")
	}
	if _, err := reliable.MaxPool2D(e, x, 2, 2); err == nil {
		t.Error("rank-1 pool input should fail")
	}
	if _, err := reliable.MaxPool2D(e, chw, 0, 2); err == nil {
		t.Error("window 0 should fail")
	}
	if _, err := reliable.MaxPool2D(e, chw, 8, 2); err == nil {
		t.Error("oversized window should fail")
	}
	if _, err := reliable.LRN(nil, chw, 3, 1, 1, 1); err == nil {
		t.Error("nil engine lrn should fail")
	}
	if _, err := reliable.LRN(e, x, 3, 1, 1, 1); err == nil {
		t.Error("rank-1 lrn input should fail")
	}
	if _, err := reliable.LRN(e, chw, 0, 1, 1, 1); err == nil {
		t.Error("window 0 lrn should fail")
	}
}
