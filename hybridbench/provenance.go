package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// provenance describes where and on what a result was measured.
func provenance(env *env, workload string) map[string]any {
	return map[string]any{
		"workload":     workload,
		"seed":         env.seed,
		"heldout_seed": env.cfg.HeldoutSeed,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"pool_workers": env.workers,
		"gemm_workers": tensor.GemmWorkers(),
		"gemm_kernel":  tensor.GemmKernel(),
		"go_version":   runtime.Version(),
		"commit":       commit(),
		"cpu_model":    cpuModel(),
		"scheduler": map[string]any{
			"max_batch": env.cfg.MaxBatch, "max_delay_ms": env.cfg.MaxDelayMS, "queue": env.cfg.Queue,
		},
		"network": map[string]any{"size": env.cfg.ImageSize, "conv1_filters": env.cfg.Conv1Filters},
	}
}

// cpuTicks returns the host's stolen and total CPU ticks so far, summed
// over CPUs: on a shared virtual machine the stolen share of a run is the
// first thing to check when its figures move.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// commit is the VCS revision the binary was built from, when the build saw
// a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeTrace stores every recorder's spans, keyed by workload, with the
// run's provenance.
func writeTrace(path string, prov map[string]any, runs map[string]*recorder) error {
	doc := map[string]any{"provenance": prov}
	spans := map[string][]span{}
	for name, r := range runs {
		r.mu.Lock()
		spans[name] = r.spans
		r.mu.Unlock()
	}
	doc["spans"] = spans
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
