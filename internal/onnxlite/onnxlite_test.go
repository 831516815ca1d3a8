package onnxlite

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/shape"
	"repro/internal/tensor"
)

func buildNet(t *testing.T, seed int64) *nn.Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3,
		Conv2Filters: 4, Hidden: 8, Classes: 3, UseLRN: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func hybridCfg() *core.Config {
	return &core.Config{
		Wiring: core.WiringBifurcated, Mode: core.ModeTemporalDMR,
		BucketFactor: 2, BucketCeiling: 3,
		Pair:          core.SobelPair{XIdx: 0, YIdx: 1},
		SobelKernel:   3,
		SafetyClasses: map[int]shape.Class{gtsrb.StopClass: shape.ClassOctagon},
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	net := buildNet(t, 1)
	m, err := Export(net, hybridCfg())
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != FormatVersion || len(m.Layers) != net.Len() {
		t.Fatalf("model header wrong: version %d, %d layers", m.Version, len(m.Layers))
	}

	var buf bytes.Buffer
	if err := Write(m, &buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	net2, cfg2, err := Import(m2, rand.New(rand.NewSource(999)))
	if err != nil {
		t.Fatal(err)
	}
	if cfg2 == nil {
		t.Fatal("reliability config lost")
	}
	if cfg2.Wiring != core.WiringBifurcated || cfg2.Mode != core.ModeTemporalDMR {
		t.Errorf("wiring/mode lost: %v %v", cfg2.Wiring, cfg2.Mode)
	}
	if cfg2.Pair != (core.SobelPair{XIdx: 0, YIdx: 1}) {
		t.Errorf("sobel pair lost: %+v", cfg2.Pair)
	}
	if cfg2.SafetyClasses[gtsrb.StopClass] != shape.ClassOctagon {
		t.Error("safety class table lost")
	}
	if cfg2.BucketFactor != 2 || cfg2.BucketCeiling != 3 {
		t.Error("bucket parameters lost")
	}

	// Weight fidelity: identical outputs on identical inputs.
	rng := rand.New(rand.NewSource(7))
	x := tensor.MustNew(1, 3, 16, 16)
	x.FillUniform(rng, 0, 1)
	a, err := net.ForwardBatch(nn.NewContext(), x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net2.ForwardBatch(nn.NewContext(), x)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("imported network computes different outputs")
	}
}

func TestExportWithoutReliability(t *testing.T) {
	net := buildNet(t, 2)
	m, err := Export(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reliability != nil {
		t.Error("no reliability should be emitted")
	}
	net2, cfg, err := Import(m, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if cfg != nil {
		t.Error("config should be nil without annotations")
	}
	if net2.Len() != net.Len() {
		t.Error("layer count changed")
	}
}

func TestExportValidation(t *testing.T) {
	if _, err := Export(nil, nil); err == nil {
		t.Error("nil net should fail")
	}
	net := buildNet(t, 4)
	bad := hybridCfg()
	bad.Wiring = core.Wiring(0)
	if _, err := Export(net, bad); err == nil {
		t.Error("unknown wiring should fail")
	}
	bad = hybridCfg()
	bad.Mode = core.RedundancyMode(0)
	if _, err := Export(net, bad); err == nil {
		t.Error("unknown mode should fail")
	}
	bad = hybridCfg()
	bad.SafetyClasses = map[int]shape.Class{0: shape.Class(99)}
	if _, err := Export(net, bad); err == nil {
		t.Error("unknown shape should fail")
	}
}

func TestImportValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, _, err := Import(nil, rng); err == nil {
		t.Error("nil model should fail")
	}
	if _, _, err := Import(&Model{Version: 99}, rng); err == nil {
		t.Error("wrong version should fail")
	}
	if _, _, err := Import(&Model{Version: 1}, rng); err == nil {
		t.Error("no layers should fail")
	}
	net := buildNet(t, 6)
	m, err := Export(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Import(m, nil); err == nil {
		t.Error("nil rng should fail")
	}
	// Unknown layer type.
	m2 := *m
	m2.Layers = append([]LayerDesc(nil), m.Layers...)
	m2.Layers[0].Type = "mystery"
	if _, _, err := Import(&m2, rng); err == nil {
		t.Error("unknown layer type should fail")
	}
	// Corrupt weights.
	m3 := *m
	m3.Layers = append([]LayerDesc(nil), m.Layers...)
	m3.Layers[0].Weights = map[string]string{"weight": "!!!not base64!!!", "bias": "x"}
	if _, _, err := Import(&m3, rng); err == nil {
		t.Error("corrupt weights should fail")
	}
	// Missing weights.
	m4 := *m
	m4.Layers = append([]LayerDesc(nil), m.Layers...)
	m4.Layers[0].Weights = nil
	if _, _, err := Import(&m4, rng); err == nil {
		t.Error("missing weights should fail")
	}
	// Bad reliability block.
	m5 := *m
	m5.Reliability = &ReliabilityDesc{Wiring: "weird", Mode: "plain"}
	if _, _, err := Import(&m5, rng); err == nil {
		t.Error("unknown wiring name should fail")
	}
	m6 := *m
	m6.Reliability = &ReliabilityDesc{Wiring: "parallel", Mode: "weird"}
	if _, _, err := Import(&m6, rng); err == nil {
		t.Error("unknown mode name should fail")
	}
	m7 := *m
	m7.Reliability = &ReliabilityDesc{Wiring: "parallel", Mode: "plain", SobelPair: []int{1}}
	if _, _, err := Import(&m7, rng); err == nil {
		t.Error("1-entry sobel pair should fail")
	}
	m8 := *m
	m8.Reliability = &ReliabilityDesc{Wiring: "parallel", Mode: "plain",
		SafetyClasses: map[string]string{"0": "weird"}}
	if _, _, err := Import(&m8, rng); err == nil {
		t.Error("unknown shape name should fail")
	}
	m9 := *m
	m9.Reliability = &ReliabilityDesc{Wiring: "parallel", Mode: "plain",
		SafetyClasses: map[string]string{"abc": "octagon"}}
	if _, _, err := Import(&m9, rng); err == nil {
		t.Error("non-numeric class key should fail")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestDocumentIsHumanReadable(t *testing.T) {
	net := buildNet(t, 7)
	m, err := Export(net, hybridCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(m, &buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{
		`"version": 1`, `"type": "conv2d"`, `"type": "lrn"`,
		`"wiring": "bifurcated"`, `"mode": "temporal-dmr"`,
		`"safety_classes"`, `"octagon"`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q", want)
		}
	}
}

// The full hybrid round trip: export a hybrid network, import it, and verify
// the rebuilt hybrid produces the same qualifier verdict.
func TestHybridRoundTripBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
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
	pair, err := core.InstallSobelPair(conv1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Wiring: core.WiringBifurcated, Mode: core.ModePlain,
		Pair:          pair,
		SafetyClasses: map[int]shape.Class{gtsrb.StopClass: shape.ClassOctagon},
	}
	h1, err := core.NewHybridNetwork(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Export(net, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	net2, cfg2, err := Import(m, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := core.NewHybridNetwork(*cfg2, net2)
	if err != nil {
		t.Fatal(err)
	}
	img, err := gtsrb.AngledStopSign(64, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := h1.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Class != r2.Class || r1.Decision != r2.Decision || r1.Qualifier.Class != r2.Qualifier.Class {
		t.Errorf("round-tripped hybrid disagrees: (%d,%v,%v) vs (%d,%v,%v)",
			r1.Class, r1.Decision, r1.Qualifier.Class,
			r2.Class, r2.Decision, r2.Qualifier.Class)
	}
}
