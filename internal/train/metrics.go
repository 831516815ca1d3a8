package train

import (
	"fmt"
	"strings"

	"repro/internal/gtsrb"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ConfusionMatrix counts (true label, predicted label) pairs.
type ConfusionMatrix struct {
	n      int
	counts []int // row = true, col = predicted
}

// NewConfusionMatrix returns an n-class confusion matrix.
func NewConfusionMatrix(n int) (*ConfusionMatrix, error) {
	if n < 1 {
		return nil, fmt.Errorf("train: confusion matrix needs >= 1 class, got %d", n)
	}
	return &ConfusionMatrix{n: n, counts: make([]int, n*n)}, nil
}

// Add records one observation.
func (m *ConfusionMatrix) Add(trueLabel, predicted int) error {
	if trueLabel < 0 || trueLabel >= m.n || predicted < 0 || predicted >= m.n {
		return fmt.Errorf("train: confusion (%d,%d) out of range [0,%d)", trueLabel, predicted, m.n)
	}
	m.counts[trueLabel*m.n+predicted]++
	return nil
}

// At returns the count of (true, predicted).
func (m *ConfusionMatrix) At(trueLabel, predicted int) int {
	return m.counts[trueLabel*m.n+predicted]
}

// Total returns the number of recorded observations.
func (m *ConfusionMatrix) Total() int {
	t := 0
	for _, c := range m.counts {
		t += c
	}
	return t
}

// Accuracy returns trace/total (0 when empty).
func (m *ConfusionMatrix) Accuracy() float64 {
	total := m.Total()
	if total == 0 {
		return 0
	}
	diag := 0
	for i := 0; i < m.n; i++ {
		diag += m.counts[i*m.n+i]
	}
	return float64(diag) / float64(total)
}

// Recall returns the per-class recall (diagonal / row sum), NaN-free:
// classes with no observations report 0.
func (m *ConfusionMatrix) Recall(class int) (float64, error) {
	if class < 0 || class >= m.n {
		return 0, fmt.Errorf("train: class %d out of range [0,%d)", class, m.n)
	}
	row := 0
	for p := 0; p < m.n; p++ {
		row += m.counts[class*m.n+p]
	}
	if row == 0 {
		return 0, nil
	}
	return float64(m.At(class, class)) / float64(row), nil
}

// MaxAbsDiff returns the largest absolute per-cell difference between two
// confusion matrices as a fraction of the larger total — the "no substantial
// difference" comparison the paper makes between original and
// Sobel-replaced confusion matrices.
func (m *ConfusionMatrix) MaxAbsDiff(o *ConfusionMatrix) (float64, error) {
	if m.n != o.n {
		return 0, fmt.Errorf("train: confusion sizes %d != %d", m.n, o.n)
	}
	total := m.Total()
	if o.Total() > total {
		total = o.Total()
	}
	if total == 0 {
		return 0, nil
	}
	maxd := 0
	for i := range m.counts {
		d := m.counts[i] - o.counts[i]
		if d < 0 {
			d = -d
		}
		if d > maxd {
			maxd = d
		}
	}
	return float64(maxd) / float64(total), nil
}

// String renders the matrix with row = true class.
func (m *ConfusionMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "confusion (%d classes, acc %.3f)\n", m.n, m.Accuracy())
	for tr := 0; tr < m.n; tr++ {
		fmt.Fprintf(&b, "  true %d:", tr)
		for p := 0; p < m.n; p++ {
			fmt.Fprintf(&b, " %4d", m.At(tr, p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Evaluate runs the network over the dataset through the batched inference
// engine (all cores) and returns the confusion matrix.
func Evaluate(net *nn.Sequential, ds *gtsrb.Dataset) (*ConfusionMatrix, error) {
	return EvaluateParallel(net, ds, 0)
}

// EvaluateParallel is Evaluate with an explicit worker count (0 = all
// cores). The dataset runs through the batch-native forward path: each
// worker packs its share of examples into NCHW micro-batches and classifies
// them with one GEMM per layer per sub-batch (infer.Predict). Predictions
// are recorded in example order and a sample's logits do not depend on its
// batch, so the matrix is identical for every worker count and sub-batch
// size.
func EvaluateParallel(net *nn.Sequential, ds *gtsrb.Dataset, workers int) (*ConfusionMatrix, error) {
	if net == nil || ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("train: evaluate needs a network and a non-empty dataset")
	}
	cm, err := NewConfusionMatrix(ds.NumClasses())
	if err != nil {
		return nil, err
	}
	pool, err := infer.New(net, infer.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	xs := make([]*tensor.Tensor, ds.Len())
	for i, ex := range ds.Examples {
		xs[i] = ex.Image
	}
	preds, err := pool.Predict(xs)
	if err != nil {
		return nil, fmt.Errorf("train: evaluate: %w", err)
	}
	for i, ex := range ds.Examples {
		if err := cm.Add(ex.Label, preds[i].Class); err != nil {
			return nil, err
		}
	}
	return cm, nil
}

// Accuracy is a convenience wrapper returning just the accuracy.
func Accuracy(net *nn.Sequential, ds *gtsrb.Dataset) (float64, error) {
	cm, err := Evaluate(net, ds)
	if err != nil {
		return 0, err
	}
	return cm.Accuracy(), nil
}

// MeanClassConfidence returns the mean softmax probability the network
// assigns to class `class` over that class's true examples — the
// "confidence values for the Stop sign class" that Figure 4 plots per
// filter replacement.
func MeanClassConfidence(net *nn.Sequential, ds *gtsrb.Dataset, class int) (float64, error) {
	if net == nil || ds == nil {
		return 0, fmt.Errorf("train: confidence needs a network and dataset")
	}
	if class < 0 || class >= ds.NumClasses() {
		return 0, fmt.Errorf("train: class %d out of range [0,%d)", class, ds.NumClasses())
	}
	var xs []*tensor.Tensor
	for _, ex := range ds.Examples {
		if ex.Label == class {
			xs = append(xs, ex.Image)
		}
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("train: dataset has no examples of class %d", class)
	}
	pool, err := infer.New(net, infer.Config{})
	if err != nil {
		return 0, err
	}
	preds, err := pool.Predict(xs)
	if err != nil {
		return 0, fmt.Errorf("train: confidence: %w", err)
	}
	var sum float64
	for _, p := range preds {
		sum += float64(p.Probs[class])
	}
	return sum / float64(len(xs)), nil
}
