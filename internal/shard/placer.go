package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Candidate is one routable shard's placement signals, as a Placer sees
// them: a snapshot assembled by the caller (the Router from its probe
// state, the simulator from its scripted fleet), so placement is pure
// decision logic with no knowledge of HTTP, probing, or virtual clocks.
type Candidate struct {
	// ID is the shard's stable identifier, for diagnostics only — Pick
	// returns an index into the candidate slice, not an ID.
	ID int
	// Load is the class-effective backlog: requests the caller has in
	// flight to the shard plus the queue depth a request of the class
	// being placed would wait behind.
	Load int64
	// Service is the per-image service time (ns) the shard last reported;
	// 0 means no estimate yet.
	Service int64
	// AdvertisedWeight is the shard's self-computed min-max weight (an
	// offered service rate, see serve.WeightTracker); 0 means the shard is
	// not advertising.
	AdvertisedWeight float64
}

// Placer chooses one shard among the routable candidates. Implementations
// must be safe for concurrent use; Pick is called with len(cands) ≥ 1 and
// returns an index into cands.
//
// Placer is the seam between placement and everything else: the Router
// feeds NewPlacer's rule live probe state, internal/sim feeds it scripted
// fleets on a virtual clock (and its tests substitute reference baselines),
// so the placement benchmarked in simulation is bit-for-bit the code that
// routes production traffic.
type Placer interface {
	// Pick returns the index of the chosen candidate.
	Pick(cands []Candidate) int
}

// NewPlacer returns the router's placement rule: decentralized online
// min-max (arXiv:2112.03896) over power-of-two-choices sampling. Two
// distinct candidates are sampled and the lower score wins; equal scores
// fall to a round-robin cursor over the whole candidate slice. The seed
// feeds the sampling: same seed, same candidate sequence → same picks, which
// the simulator's determinism rests on.
func NewPlacer(seed int64) Placer {
	return &minMaxPlacer{rng: rand.New(rand.NewSource(seed))}
}

// minMaxScore scores a sampled pair; lower wins. Scoring is pairwise (not
// per-candidate) because the unit rule is pairwise: a measured shard and an
// unmeasured one must be compared in common units, whatever each knows
// individually. In order of preference:
//
//   - both advertise: (load+1)/advertised_weight — load per offered service
//     rate is expected completion time by the shard's own account, and the
//     advertisements adapt on the workers to equalise exactly that;
//   - both report a service time: (load+1)×service_ns, the same expected
//     completion time measured router-side (startup, before the trackers
//     have settled);
//   - otherwise raw class-effective load, load+1.
func minMaxScore(a, b Candidate) (float64, float64) {
	sa, sb := float64(a.Load+1), float64(b.Load+1)
	switch {
	case a.AdvertisedWeight > 0 && b.AdvertisedWeight > 0:
		return sa / a.AdvertisedWeight, sb / b.AdvertisedWeight
	case a.Service > 0 && b.Service > 0:
		return sa * float64(a.Service), sb * float64(b.Service)
	}
	return sa, sb
}

type minMaxPlacer struct {
	mu  sync.Mutex
	rng *rand.Rand

	rr atomic.Uint64 // tie-break cursor
}

func (p *minMaxPlacer) Pick(cands []Candidate) int {
	if len(cands) <= 1 {
		return 0
	}
	p.mu.Lock()
	i := p.rng.Intn(len(cands))
	j := p.rng.Intn(len(cands) - 1)
	p.mu.Unlock()
	if j >= i {
		j++
	}
	sa, sb := minMaxScore(cands[i], cands[j])
	switch {
	case sa < sb:
		return i
	case sb < sa:
		return j
	default:
		return int(p.rr.Add(1) % uint64(len(cands)))
	}
}
