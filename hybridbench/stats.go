package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// trimmedMean is the mean of xs without the lowest and the highest trim
// share of them (0 for no samples). On a shared host the machine runs in
// fast and slow regimes lasting seconds, set by other tenants; a median
// over slices flips between the regimes as their shares cross one half,
// while a trimmed mean follows the shares smoothly and still ignores a
// stalled slice.
func trimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(trim * float64(len(s)))
	return mean(s[k : len(s)-k])
}

// sliceRates splits the window [from, to) into n equal slices and returns
// each slice's rate of events per second, where events are the given
// completion instants. Within a slice the rate is the events after its
// first completion over the time from first to last completion, so it is
// not quantised by the slice width.
func sliceRates(done []time.Time, from, to time.Time, n int) []float64 {
	width := to.Sub(from) / time.Duration(n)
	slots := make([][]time.Time, n)
	for _, t := range done {
		if t.Before(from) || !t.Before(to) {
			continue
		}
		i := min(int(t.Sub(from)/width), n-1)
		slots[i] = append(slots[i], t)
	}
	var rates []float64
	for _, s := range slots {
		if len(s) < 2 {
			continue
		}
		first, last := slices.MinFunc(s, time.Time.Compare), slices.MaxFunc(s, time.Time.Compare)
		if span := last.Sub(first); span > 0 {
			after := 0
			for _, t := range s {
				if t.After(first) {
					after++
				}
			}
			rates = append(rates, float64(after)/span.Seconds())
		}
	}
	return rates
}

// sample is one measured value and the instant that places it in a slice.
type sample struct {
	at time.Time
	v  float64
}

// sliceQuantiles splits the window [from, to) into n equal slices and
// returns each slice's q-quantile. Slices with fewer than minPerSlice
// samples are skipped; when none has enough, the quantile of the whole
// window is the only value.
func sliceQuantiles(xs []sample, from, to time.Time, n int, q float64) []float64 {
	const minPerSlice = 10
	width := to.Sub(from) / time.Duration(n)
	slots := make([][]float64, n)
	for _, x := range xs {
		if x.at.Before(from) || !x.at.Before(to) {
			continue
		}
		i := min(int(x.at.Sub(from)/width), n-1)
		slots[i] = append(slots[i], x.v)
	}
	var qs, all []float64
	for _, s := range slots {
		all = append(all, s...)
		if len(s) >= minPerSlice {
			qs = append(qs, quantile(s, q))
		}
	}
	if len(qs) == 0 && len(all) > 0 {
		return []float64{quantile(all, q)}
	}
	return qs
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// memWindow measures the Go runtime's allocation and GC work between
// start and stop.
type memWindow struct{ before, after runtime.MemStats }

func (w *memWindow) start() { runtime.ReadMemStats(&w.before) }
func (w *memWindow) stop()  { runtime.ReadMemStats(&w.after) }

// layerMetrics returns the go.* per-layer metrics for ops operations.
func (w *memWindow) layerMetrics(ops int) map[string]float64 {
	return map[string]float64{
		"go.alloc_kb_per_op": float64(w.after.TotalAlloc-w.before.TotalAlloc) / 1024 / float64(max(ops, 1)),
		"go.gc_count":        float64(w.after.NumGC - w.before.NumGC),
		"go.gc_pause_ms":     float64(w.after.PauseTotalNs-w.before.PauseTotalNs) / 1e6,
	}
}
