package infer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func microNet(t testing.TB, seed int64) *nn.Sequential {
	t.Helper()
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3, Conv2Filters: 4,
		Hidden: 8, Classes: 4, UseLRN: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randImages(n, size int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		x := tensor.MustNew(3, size, size)
		x.FillUniform(rng, 0, 1)
		xs[i] = x
	}
	return xs
}

// predictAlone classifies x alone, as an N=1 batch through a fresh context
// — the reference every pooled prediction must reproduce bit for bit.
func predictAlone(t testing.TB, net *nn.Sequential, x *tensor.Tensor) Prediction {
	t.Helper()
	x1, err := x.Reshape(append([]int{1}, x.Shape()...)...)
	if err != nil {
		t.Fatal(err)
	}
	logits, err := net.ForwardBatch(nn.NewContext(), x1)
	if err != nil {
		t.Fatal(err)
	}
	row, err := logits.Sample(0)
	if err != nil {
		t.Fatal(err)
	}
	probs, class, err := nn.SoftmaxArgmax(row)
	if err != nil {
		t.Fatal(err)
	}
	return Prediction{Class: class, Probs: probs}
}

// checkPredictions compares got against each input predicted alone, class
// and every probability bit.
func checkPredictions(t *testing.T, label string, net *nn.Sequential, xs []*tensor.Tensor, got []Prediction) {
	t.Helper()
	if len(got) != len(xs) {
		t.Fatalf("%s: %d predictions for %d inputs", label, len(got), len(xs))
	}
	for i, x := range xs {
		want := predictAlone(t, net, x)
		if got[i].Class != want.Class || len(got[i].Probs) != len(want.Probs) {
			t.Fatalf("%s: prediction %d = class %d (%d probs), want %d (%d probs)",
				label, i, got[i].Class, len(got[i].Probs), want.Class, len(want.Probs))
		}
		for c, p := range got[i].Probs {
			if math.Float32bits(p) != math.Float32bits(want.Probs[c]) {
				t.Fatalf("%s: probs[%d][%d] = %v, alone %v", label, i, c, p, want.Probs[c])
			}
		}
	}
}

// TestBatchEngineMatchesSerial: the pooled result must be exactly each image
// classified alone, in order, for every worker count. Run with -race this is
// the concurrent shared-weight inference gate.
func TestBatchEngineMatchesSerial(t *testing.T) {
	net := microNet(t, 1)
	xs := randImages(17, 16, 2)
	for _, workers := range []int{1, 2, 4, 8} {
		e, err := New(net, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		// Two rounds through the same engine: the second reuses warmed
		// per-worker scratch buffers.
		for round := 0; round < 2; round++ {
			preds, err := e.Predict(xs)
			if err != nil {
				t.Fatal(err)
			}
			checkPredictions(t, fmt.Sprintf("workers=%d round=%d", workers, round), net, xs, preds)
		}
	}
}

func TestBatchEngineRun(t *testing.T) {
	e, err := New(nil, Config{Workers: 4, SubBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != 4 || e.SubBatch() != 3 {
		t.Fatalf("workers = %d, sub-batch = %d", e.Workers(), e.SubBatch())
	}
	var count atomic.Int64
	if err := e.RunSub(100, func(w *Worker, lo, hi int) error {
		if w.Ctx == nil {
			t.Error("worker without context")
		}
		count.Add(int64(hi - lo))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("ran %d of 100 items", count.Load())
	}

	// Errors propagate and cancel the batch.
	boom := errors.New("boom")
	err = e.RunSub(1000, func(w *Worker, lo, hi int) error {
		if lo <= 3 && 3 < hi {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}

	// Validation.
	if err := e.RunSub(1, nil); err == nil {
		t.Error("nil fn should fail")
	}
	if _, err := New(nil, Config{Workers: -2}); err == nil {
		t.Error("negative workers should fail")
	}
	if _, err := e.Predict(nil); err == nil {
		t.Error("predict without network should fail")
	}
}

// TestBatchEngineRunSubSerializes: concurrent RunSub callers serialise on
// the engine — every batch executes in full and no two batches overlap, so
// the per-worker contexts are never shared. Meant for -race -count=10.
func TestBatchEngineRunSubSerializes(t *testing.T) {
	e, err := New(nil, Config{Workers: 3, SubBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	const callers, items = 8, 20
	var mu sync.Mutex
	var order []int // caller of every executed sub-batch, in execution order
	var total atomic.Int64
	var wg sync.WaitGroup
	wg.Add(callers)
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			errs <- e.RunSub(items, func(w *Worker, lo, hi int) error {
				mu.Lock()
				order = append(order, c)
				mu.Unlock()
				total.Add(int64(hi - lo))
				return nil
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("RunSub: %v", err)
		}
	}
	if got := total.Load(); got != callers*items {
		t.Fatalf("executed %d of %d items", got, callers*items)
	}
	// Each caller's sub-batches must form one contiguous run.
	finished := make(map[int]bool)
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			finished[order[i-1]] = true
			if finished[order[i]] {
				t.Fatalf("caller %d's batch resumed after another batch ran: %v", order[i], order)
			}
		}
	}
}

// TestRunSubCoversEveryIndex: sub-batch partitioning must cover [0, n)
// exactly once with contiguous chunks, for default and explicit sub-batch
// sizes, including ragged tails.
func TestRunSubCoversEveryIndex(t *testing.T) {
	for _, tc := range []struct{ workers, subBatch, n int }{
		{4, 0, 17}, // default: ceil(17/4) = 5 → chunks 5,5,5,2
		{4, 0, 4},
		{4, 0, 1},
		{3, 2, 11}, // explicit cap, ragged tail
		{2, 1, 5},  // N=1 sub-batches
		{8, 16, 3}, // cap larger than batch
	} {
		e, err := New(nil, Config{Workers: tc.workers, SubBatch: tc.subBatch})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		seen := make([]int, tc.n)
		maxChunk := 0
		err = e.RunSub(tc.n, func(w *Worker, lo, hi int) error {
			if lo < 0 || hi <= lo || hi > tc.n {
				t.Errorf("%+v: bad chunk [%d,%d)", tc, lo, hi)
			}
			mu.Lock()
			if hi-lo > maxChunk {
				maxChunk = hi - lo
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%+v: index %d covered %d times", tc, i, c)
			}
		}
		want := tc.subBatch
		if want <= 0 {
			want = (tc.n + tc.workers - 1) / tc.workers
		}
		if want > tc.n {
			want = tc.n
		}
		if maxChunk > want {
			t.Fatalf("%+v: chunk of %d exceeds sub-batch cap %d", tc, maxChunk, want)
		}
	}
	// Empty batch is a no-op; negative sub-batch is rejected at New.
	e, err := New(nil, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSub(0, func(w *Worker, lo, hi int) error {
		t.Error("empty batch must not call fn")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, Config{Workers: 2, SubBatch: -1}); err == nil {
		t.Error("negative sub-batch should fail")
	}
}

// TestPredictBatchedMatchesPredict: the batch-native Predict (packed NCHW
// sub-batches, one GEMM per layer) must classify every image bit for bit as
// it classifies alone, for every worker count and sub-batch size, including
// N=1 and batches ragged against the pool. Run with -race this is the
// golden-equivalence gate of the batched execution layer.
func TestPredictBatchedMatchesPredict(t *testing.T) {
	net := microNet(t, 5)
	for _, n := range []int{1, 2, 7, 17} {
		xs := randImages(n, 16, int64(n))
		for _, cfg := range []Config{
			{Workers: 1}, {Workers: 4}, {Workers: 4, SubBatch: 3}, {Workers: 2, SubBatch: 1},
		} {
			e, err := New(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Two rounds: the second reuses the warmed batch scratch.
			for round := 0; round < 2; round++ {
				preds, err := e.Predict(xs)
				if err != nil {
					t.Fatal(err)
				}
				checkPredictions(t, fmt.Sprintf("n=%d cfg=%+v round=%d", n, cfg, round), net, xs, preds)
			}
		}
	}
}

// TestPredictMixedShapes: inputs of several shapes group by shape
// (first-seen order) and each group runs batched; every result equals its
// image classified alone, wherever its group sits in the input.
func TestPredictMixedShapes(t *testing.T) {
	// A conv-only net tolerates any input size ≥ the kernel.
	conv, err := nn.NewConv2D("c", 3, 2, 3, 1, 0, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewSequential("convnet", conv, nn.NewFlatten("f"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := randImages(3, 16, 9), randImages(2, 12, 10)
	xs := []*tensor.Tensor{a[0], b[0], a[1], randImages(1, 9, 11)[0], a[2], b[1]}
	e, err := New(net, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := e.Predict(xs)
	if err != nil {
		t.Fatalf("mixed-shape predict: %v", err)
	}
	checkPredictions(t, "mixed shapes", net, xs, preds)
}

func TestBatchEngineDefaultWorkers(t *testing.T) {
	e, err := New(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() < 1 {
		t.Fatalf("default workers = %d", e.Workers())
	}
}
