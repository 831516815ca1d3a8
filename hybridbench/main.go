// Command hybridbench is the repository's benchmark: one in-process program
// that drives the demo hybrid CNN through its public entry points — PNG
// decode, the micro-batching scheduler, the pooled classifier, the reliable
// conv1 under Algorithm 3, the shape qualifier, the batched CNN — plus the
// fault-injection campaign and the trainer, checks every output against a
// reference, and prints its metrics.
//
// Run it from the repository root through its build script:
//
//	bash hybridbench/run.sh --workload serve-full --seed 1 --seconds 36 --trace 0
//
// Workloads: serve-full, campaign, train (see config.json for
// why each exists and what ROADMAP items should move it). With --trace 0 it
// prints the end-to-end metrics BENCHMARK.json declares; with --trace 1 it
// runs the workload untraced and then traced for half the time each, times
// each layer from outside with spans, writes the spans to
// .bench_build/trace/, and prints the declared per-layer metrics. Per-layer
// metrics the workload does not exercise come from short traced runs of the
// workloads that do, on the same seed.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The exit code is 1 when any output check failed and 2
// when the run could not complete.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/tensor"
)

//go:embed config.json
var configJSON []byte

// settings are the benchmark's pinned parameters; config.json documents
// each one.
type settings struct {
	DefaultSeed       int64     `json:"default_seed"`
	HeldoutSeed       int64     `json:"heldout_seed"`
	ImageSize         int       `json:"image_size"`
	Conv1Filters      int       `json:"conv1_filters"`
	Inputs            int       `json:"inputs"`
	MaxBatch          int       `json:"max_batch"`
	MaxDelayMS        float64   `json:"max_delay_ms"`
	Queue             int       `json:"queue"`
	GemmWorkers       int       `json:"gemm_workers"`
	RequestTimeoutMS  int       `json:"request_timeout_ms"`
	CampaignInputs    int       `json:"campaign_inputs"`
	CampaignTrials    int       `json:"campaign_trials"`
	CampaignRates     []float64 `json:"campaign_fault_rates"`
	TrainPerClass     int       `json:"train_per_class"`
	TrainBatch        int       `json:"train_batch"`
	TrainProbeBatches int       `json:"train_probe_batches"`
	SetupReps         int       `json:"setup_reps"`
	WarmupShare       float64   `json:"warmup_share"`
	Slices            int       `json:"slices"`
	SliceTrim         float64   `json:"slice_trim"`
	ReplayBatches     int       `json:"replay_batches"`
	ModeProbeImages   int       `json:"mode_probe_images"`
	ProbeSeconds      float64   `json:"probe_seconds"`

	Workloads map[string]json.RawMessage `json:"workloads"`
	Doc       map[string]string          `json:"doc"`
}

func loadSettings() (settings, error) {
	var s settings
	dec := json.NewDecoder(bytes.NewReader(configJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("config.json: %w", err)
	}
	for _, r := range s.CampaignRates {
		if r < 0 || r > 1 {
			return s, fmt.Errorf("config.json: campaign fault rate %v out of [0,1]", r)
		}
	}
	if s.Inputs < s.ModeProbeImages || s.TrainPerClass*6 < s.TrainBatch || s.SetupReps < 2 ||
		s.Slices < 1 || s.ReplayBatches < 1 || s.CampaignTrials < 1 || len(s.CampaignRates) == 0 {
		return s, fmt.Errorf("config.json: inconsistent sizes")
	}
	return s, nil
}

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the metric names and units from BENCHMARK.json in the
// working directory, so the program prints exactly what it declares.
func declared() (endToEnd, perLayer []metricSpec, err error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b.EndToEnd, b.PerLayer, nil
}

// env is what every workload shares within one run.
type env struct {
	cfg     settings
	seed    int64
	workers int

	serveIns  []input
	serveImgs []*tensor.Tensor
}

// warmup is the leading part of a run left out of the measurement.
func (e *env) warmup(d time.Duration) time.Duration {
	return time.Duration(float64(d) * e.cfg.WarmupShare)
}

// overSlices sums up per-slice (or per-pass) values of one metric as
// their trimmed mean.
func (e *env) overSlices(xs []float64) float64 { return trimmedMean(xs, e.cfg.SliceTrim) }

// setupReps splits cfg.SetupReps builds into those run before the
// measured loop and those run after it. A build takes tens of
// milliseconds, and a shared host runs in fast and slow regimes lasting
// seconds, so builds made at one moment all share its regime; two groups
// made a run's length apart keep setup_s from resting on one moment.
func (e *env) setupReps() (before, after int) {
	return (e.cfg.SetupReps + 1) / 2, e.cfg.SetupReps / 2
}

// timeSetups runs build reps times and returns the wall time of each
// build. Each build starts from a collected heap, as in a fresh process.
// discard, when non-nil, releases every build but the last, outside the
// timing.
func (e *env) timeSetups(reps int, build, discard func() error) ([]float64, error) {
	times := make([]float64, 0, reps)
	for r := range reps {
		if r > 0 && discard != nil {
			if err := discard(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// serveInputs renders and decodes serve-full's input set once, for both
// halves of a traced run.
func (e *env) serveInputs() ([]input, []*tensor.Tensor, error) {
	if e.serveIns == nil {
		ins, err := makeInputs(e.seed, e.cfg.Inputs, e.cfg.ImageSize)
		if err != nil {
			return nil, nil, err
		}
		imgs, err := decodeAll(ins)
		if err != nil {
			return nil, nil, err
		}
		e.serveIns, e.serveImgs = ins, imgs
	}
	return e.serveIns, e.serveImgs, nil
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	mismatches        int // outputs that disagreed with their reference
	errs              []error
	ops               int // completed operations in the measured loop
	mem               memWindow
	e2e               map[string]float64
	samples           map[string]int
	layers            map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, samples: map[string]int{}, layers: map[string]float64{}}
}

// set records an end-to-end metric and how many samples it rests on.
func (o *outcome) set(name string, v float64, n int) {
	o.e2e[name] = v
	o.samples[name] = n
}

// measured fails when an end-to-end metric rests on no samples or is not
// positive. Every one of them is a positive quantity, so a zero means the
// work it measures never completed, for instance because every request
// errored, and must not read as a gain.
func (o *outcome) measured() error {
	for _, name := range slices.Sorted(maps.Keys(o.e2e)) {
		if v, n := o.e2e[name], o.samples[name]; n == 0 || !(v > 0) {
			return fmt.Errorf("%s is %v on %d samples (%d of %d operations failed)", name, v, n, o.failed, o.attempted)
		}
	}
	return nil
}

type workloadFunc func(env *env, dur time.Duration, rec *recorder) (*outcome, error)

// workloadOrder is also the order in which a traced run borrows per-layer
// metrics from other workloads.
var workloadOrder = []string{"serve-full", "campaign", "train"}

var workloads = map[string]workloadFunc{
	"serve-full": serveFull,
	"campaign":   campaign,
	"train":      trainWorkload,
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	cfg, err := loadSettings()
	if err != nil {
		return 2, err
	}
	fs := flag.NewFlagSet("hybridbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadOrder))
	seed := fs.Int64("seed", cfg.DefaultSeed, "input and weight seed")
	seconds := fs.Float64("seconds", 36, "measured run length")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadOrder)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	endToEnd, perLayer, err := declared()
	if err != nil {
		return 2, err
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	tensor.SetGemmWorkers(cfg.GemmWorkers)
	env := &env{cfg: cfg, seed: *seed, workers: runtime.NumCPU()}
	prov := provenance(env, *name)
	dur := time.Duration(*seconds * float64(time.Second))
	steal0, total0 := cpuTicks()

	var total *outcome
	var values map[string]float64
	var samples map[string]int
	var specs []metricSpec
	if *trace == 0 {
		o, err := w(env, dur, nil)
		if err != nil {
			return 2, err
		}
		o.set("max_rss_mb", peakRSSMB(), 1)
		if err := o.measured(); err != nil {
			return 2, err
		}
		total, values, samples, specs = o, o.e2e, o.samples, endToEnd
	} else {
		o, err := tracedRun(env, *name, dur, perLayer, prov)
		if err != nil {
			return 2, err
		}
		total, values, specs = o, o.layers, perLayer
	}

	if err := checkDeclared(values, specs); err != nil {
		return 2, err
	}
	for _, s := range specs {
		if v := values[s.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
			return 2, fmt.Errorf("metric %s is %v", s.Name, v)
		}
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		prov["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	provLine, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(provLine))
	metrics := make(map[string]any, len(specs))
	for _, s := range specs {
		if n, ok := samples[s.Name]; ok {
			fmt.Printf("%-34s %14.6g %-6s n=%d\n", s.Name, values[s.Name], s.Unit, n)
		} else {
			fmt.Printf("%-34s %14.6g %s\n", s.Name, values[s.Name], s.Unit)
		}
		metrics[s.Name] = map[string]any{"value": values[s.Name], "unit": s.Unit}
	}
	for _, e := range total.errs[:min(len(total.errs), 5)] {
		fmt.Fprintln(os.Stderr, "request error:", e)
	}
	correct := total.mismatches == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": total.attempted, "failed": total.failed, "metrics": metrics,
	})
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if !correct {
		return 1, fmt.Errorf("%d outputs disagreed with their references", total.mismatches)
	}
	return 0, nil
}

// tracedRun runs the workload untraced and then traced, half the time each,
// and returns the traced outcome carrying every declared per-layer metric.
func tracedRun(env *env, name string, dur time.Duration, perLayer []metricSpec, prov map[string]any) (*outcome, error) {
	plain, err := workloads[name](env, dur/2, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	o, err := workloads[name](env, dur/2, rec)
	if err != nil {
		return nil, err
	}
	for _, r := range []*outcome{plain, o} {
		if err := r.measured(); err != nil {
			return nil, err
		}
	}
	maps.Copy(o.layers, plain.mem.layerMetrics(plain.ops))
	o.layers["trace.overhead_share"] = o.e2e["latency_p50_ms"]/plain.e2e["latency_p50_ms"] - 1
	o.attempted += plain.attempted
	o.failed += plain.failed
	o.mismatches += plain.mismatches
	o.errs = append(o.errs, plain.errs...)

	runs := map[string]*recorder{name: rec}
	probe := time.Duration(env.cfg.ProbeSeconds * float64(time.Second))
	for _, other := range workloadOrder {
		if other == name || len(missing(o.layers, perLayer)) == 0 {
			continue
		}
		runs[other] = newRecorder()
		p, err := workloads[other](env, probe, runs[other])
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", other, err)
		}
		for _, m := range missing(o.layers, perLayer) {
			if v, ok := p.layers[m]; ok {
				o.layers[m] = v
			}
		}
		o.attempted += p.attempted
		o.failed += p.failed
		o.mismatches += p.mismatches
	}
	path := fmt.Sprintf(".bench_build/trace/%s-seed%d.json", name, env.seed)
	return o, writeTrace(path, prov, runs)
}

func missing(have map[string]float64, specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		if _, ok := have[s.Name]; !ok {
			out = append(out, s.Name)
		}
	}
	return out
}

// checkDeclared fails when the run produced a metric BENCHMARK.json does
// not declare, or missed one it does.
func checkDeclared(values map[string]float64, specs []metricSpec) error {
	if m := missing(values, specs); len(m) > 0 {
		return fmt.Errorf("metrics declared but not measured: %v", m)
	}
	names := make(map[string]bool, len(specs))
	for _, s := range specs {
		names[s.Name] = true
	}
	var extra []string
	for k := range values {
		if !names[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		slices.Sort(extra)
		return fmt.Errorf("metrics measured but not declared in BENCHMARK.json: %v", extra)
	}
	return nil
}
