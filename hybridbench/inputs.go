package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/tensor"
)

// input is one seeded sign render, PNG-encoded the way a camera client
// would send it.
type input struct {
	png   []byte
	label int
}

// makeInputs renders n signs cycling through all six classes, from seed.
func makeInputs(seed int64, n, size int) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg, err := gtsrb.Config{Size: size}.Normalize()
	if err != nil {
		return nil, err
	}
	classes := gtsrb.StandardClasses()
	out := make([]input, n)
	for i := range out {
		label := i % len(classes)
		img, err := gtsrb.Render(gtsrb.RandomParams(cfg, classes[label], rng), rng)
		if err != nil {
			return nil, fmt.Errorf("render input %d: %w", i, err)
		}
		var buf bytes.Buffer
		if err := gtsrb.WritePNG(img, &buf); err != nil {
			return nil, fmt.Errorf("encode input %d: %w", i, err)
		}
		out[i] = input{png: buf.Bytes(), label: label}
	}
	return out, nil
}

func decode(in input) (*tensor.Tensor, error) {
	return gtsrb.ReadPNG(bytes.NewReader(in.png))
}

// decodeAll decodes every input once.
func decodeAll(ins []input) ([]*tensor.Tensor, error) {
	out := make([]*tensor.Tensor, len(ins))
	for i, in := range ins {
		img, err := decode(in)
		if err != nil {
			return nil, fmt.Errorf("decode input %d: %w", i, err)
		}
		out[i] = img
	}
	return out, nil
}

// fullReferences computes the fault-free single-image verdict
// (HybridNetwork.Classify) of every image.
func fullReferences(h *core.HybridNetwork, imgs []*tensor.Tensor) ([]core.Result, error) {
	refs := make([]core.Result, len(imgs))
	for i, img := range imgs {
		var err error
		if refs[i], err = h.Classify(img); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// sameVerdict reports whether got matches want in its output and in the
// reliable op count.
func sameVerdict(got, want core.Result) bool {
	return sameOutput(got, want) && got.Stats.Ops == want.Stats.Ops
}

// sameOutput compares the verdict a fault could corrupt: class, decision,
// qualifier class and every probability bit. Op counts are left out because
// retries legitimately add operations.
func sameOutput(got, want core.Result) bool {
	return got.Class == want.Class && got.Decision == want.Decision &&
		got.Qualifier.Class == want.Qualifier.Class && sameBits(got.Probs, want.Probs)
}
