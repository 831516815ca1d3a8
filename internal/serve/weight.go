package serve

import (
	"sync"
	"time"
)

// WeightTracker computes a worker's advertised placement weight online —
// the worker-side half of the distributed min-max placement policy
// (the frame of "Gradient and Projection Free Distributed Online Min-Max
// Resource Optimization", arXiv:2112.03896): minimize the worst shard's
// expected completion time with no gradients, no projections and no
// central coordinator. Each worker adapts a single scalar from purely
// local observations; routers consume the advertised weights through
// ordinary weighted power-of-two-choices scoring, so the fleet converges
// toward equalized expected completion times without any coordination
// hop.
//
// The update is gradient-free (a sign test on a local pressure signal,
// not a derivative) and projection-free (feasibility is kept by a
// multiplicative clamp instead of projecting onto a constraint set):
//
//	pressure = queueDepth/queueCap + shedPenalty · shedRate
//	factor  *= (1+eta)  when pressure < low   (capacity to spare: invite load)
//	factor  *= (1-eta)  when pressure > high  (overloaded: back off)
//	factor   = clamp(factor, min, max)
//	weight   = factor / serviceSeconds
//
// Dividing by the per-image service-time EWMA makes the advertised weight
// an offered service *rate*: a router scoring (load+1)/weight compares
// expected completion times directly, which is exactly what the router's
// own (load+1)×service-time fallback approximates — except here the
// capacity estimate adapts online. The pressure term is the worker's
// early-warning channel: a queue builds (and admission control sheds)
// well before the service-time EWMA of a degrading shard converges, so
// the advertised weight collapses multiplicatively within a few update
// intervals while a router-side service signal is still catching up.
//
// Until the first batch completes there is no service estimate and
// Weight reports 0 — "not advertising" — so routers fall back to the
// service-time comparison rather than mix units.
//
// WeightTracker is safe for concurrent use. Updates are rate-limited by
// MinInterval; the simulator drives Observe on a virtual clock, the
// Scheduler on the wall clock at every Stats snapshot (i.e. at the
// router's probe cadence).
type WeightTracker struct {
	cfg WeightConfig

	mu       sync.Mutex
	factor   float64 // adapted capacity multiplier, starts at 1
	shed     float64 // EWMA of the shed fraction between updates
	lastSub  uint64
	lastRej  uint64
	last     time.Time
	weight   float64 // current advertised weight (0 = not advertising)
	observed bool
}

// WeightConfig tunes a WeightTracker. The zero value selects the
// defaults listed on each field.
type WeightConfig struct {
	// Eta is the multiplicative step size of one update. Default 0.15.
	Eta float64
	// HighPressure opens the back-off regime. Default 0.5.
	HighPressure float64
	// LowPressure opens the invite regime. Default 0.2.
	LowPressure float64
	// ShedPenalty scales the shed-rate term of the pressure signal: a
	// worker shedding 10% of its offered load with ShedPenalty 4 reads as
	// 0.4 pressure before any queue depth. Default 4.
	ShedPenalty float64
	// MinFactor/MaxFactor clamp the adapted multiplier (the
	// projection-free feasibility bound). Defaults 1/8 and 8.
	MinFactor, MaxFactor float64
	// MinInterval rate-limits updates; observations arriving earlier
	// return the current weight unchanged. Default 100ms.
	MinInterval time.Duration
	// ShedAlpha is the EWMA coefficient of the shed-rate estimate.
	// Default 0.25.
	ShedAlpha float64
	// ServiceFloor bounds the service-time divisor away from zero.
	// Default 1µs.
	ServiceFloor time.Duration
}

func (c WeightConfig) withDefaults() WeightConfig {
	if c.Eta == 0 {
		c.Eta = 0.15
	}
	if c.HighPressure == 0 {
		c.HighPressure = 0.5
	}
	if c.LowPressure == 0 {
		c.LowPressure = 0.2
	}
	if c.ShedPenalty == 0 {
		c.ShedPenalty = 4
	}
	if c.MinFactor == 0 {
		c.MinFactor = 1.0 / 8
	}
	if c.MaxFactor == 0 {
		c.MaxFactor = 8
	}
	if c.MinInterval == 0 {
		c.MinInterval = 100 * time.Millisecond
	}
	if c.ShedAlpha == 0 {
		c.ShedAlpha = 0.25
	}
	if c.ServiceFloor == 0 {
		c.ServiceFloor = time.Microsecond
	}
	return c
}

// WeightSignals is one local observation: the worker's own view of its
// speed and backlog, plus the cumulative admission counters the tracker
// differentiates into a shed rate.
type WeightSignals struct {
	// Service is the per-image backend service-time EWMA (Stats.ServiceTime).
	// 0 means "no estimate yet" and keeps the tracker from advertising.
	Service time.Duration
	// QueueDepth and QueueCap are the scheduler's live backlog and bound.
	QueueDepth, QueueCap int
	// Submitted and Rejected are cumulative admission counters
	// (Stats.Submitted / Stats.Rejected); the tracker uses the deltas
	// between observations.
	Rejected, Submitted uint64
}

// NewWeightTracker returns a tracker with the given configuration (zero
// value = defaults).
func NewWeightTracker(cfg WeightConfig) *WeightTracker {
	return &WeightTracker{cfg: cfg.withDefaults(), factor: 1}
}

// Observe folds one observation in and returns the advertised weight.
// Observations closer together than MinInterval are ignored (the current
// weight is returned), so the adaptation rate is set by the observation
// cadence, not by how often callers happen to snapshot.
func (t *WeightTracker) Observe(now time.Time, sig WeightSignals) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.observed && now.Sub(t.last) < t.cfg.MinInterval {
		return t.weight
	}
	// Shed rate over the window since the last update: rejected / offered.
	dSub := sig.Submitted - t.lastSub
	dRej := sig.Rejected - t.lastRej
	if t.observed {
		inst := 0.0
		if dSub+dRej > 0 {
			inst = float64(dRej) / float64(dSub+dRej)
		}
		t.shed += (inst - t.shed) * t.cfg.ShedAlpha
	}
	t.lastSub, t.lastRej = sig.Submitted, sig.Rejected
	t.last = now
	t.observed = true

	pressure := 0.0
	if sig.QueueCap > 0 {
		pressure = float64(sig.QueueDepth) / float64(sig.QueueCap)
	}
	pressure += t.cfg.ShedPenalty * t.shed
	switch {
	case pressure > t.cfg.HighPressure:
		t.factor *= 1 - t.cfg.Eta
	case pressure < t.cfg.LowPressure:
		t.factor *= 1 + t.cfg.Eta
	}
	if t.factor < t.cfg.MinFactor {
		t.factor = t.cfg.MinFactor
	}
	if t.factor > t.cfg.MaxFactor {
		t.factor = t.cfg.MaxFactor
	}
	if sig.Service <= 0 {
		t.weight = 0 // no speed estimate yet: don't advertise
		return t.weight
	}
	svc := sig.Service
	if svc < t.cfg.ServiceFloor {
		svc = t.cfg.ServiceFloor
	}
	t.weight = t.factor / svc.Seconds()
	return t.weight
}

// Weight returns the current advertised weight without folding in a new
// observation. 0 means the tracker is not advertising yet.
func (t *WeightTracker) Weight() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.weight
}
