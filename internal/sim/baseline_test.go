package sim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/shard"
)

// refPlacer is a reference baseline for the placement gates: the same
// power-of-two-choices sampling as shard.NewPlacer (same seed, same pair
// sequence, same round-robin tie cursor) under a different pair score, so
// the comparison isolates the scoring rule. run is single-threaded, so no
// locking is needed.
type refPlacer struct {
	score func(a, b shard.Candidate) (float64, float64)
	rng   *rand.Rand
	rr    uint64
}

func newRefPlacer(seed int64, score func(a, b shard.Candidate) (float64, float64)) *refPlacer {
	return &refPlacer{score: score, rng: rand.New(rand.NewSource(seed))}
}

func (p *refPlacer) Pick(cands []shard.Candidate) int {
	if len(cands) <= 1 {
		return 0
	}
	i := p.rng.Intn(len(cands))
	j := p.rng.Intn(len(cands) - 1)
	if j >= i {
		j++
	}
	sa, sb := p.score(cands[i], cands[j])
	switch {
	case sa < sb:
		return i
	case sb < sa:
		return j
	default:
		p.rr++
		return int(p.rr % uint64(len(cands)))
	}
}

// scoreP2C is blind power-of-two-choices: raw class-effective load,
// ignoring every capacity signal.
func scoreP2C(a, b shard.Candidate) (float64, float64) {
	return float64(a.Load + 1), float64(b.Load + 1)
}

// scoreWeightedP2C is load scaled by the probed service time when both
// candidates report one — min-max's fallback without the advertised
// weights.
func scoreWeightedP2C(a, b shard.Candidate) (float64, float64) {
	sa, sb := float64(a.Load+1), float64(b.Load+1)
	if a.Service > 0 && b.Service > 0 {
		return sa * float64(a.Service), sb * float64(b.Service)
	}
	return sa, sb
}

// TestMatrix runs every builtin under min-max and the two reference
// baselines, prints the table (go test -v) and enforces the tail-latency
// gates:
//
//   - min-max p99 and shed ≤ weighted-p2c on the heterogeneous, adversarial
//     and step-degradation scenarios: the advertised weights must never
//     make placement worse than their own service-time fallback;
//   - blind p2c loses on the heterogeneous fleet, the sanity check that the
//     simulator can tell placement rules apart.
func TestMatrix(t *testing.T) {
	type row struct{ minmax, weighted, p2c Result }
	rows := map[string]row{}
	for _, sc := range Builtins() {
		mm, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := run(sc, newRefPlacer(sc.Seed, scoreWeightedP2C))
		if err != nil {
			t.Fatal(err)
		}
		p2c, err := run(sc, newRefPlacer(sc.Seed, scoreP2C))
		if err != nil {
			t.Fatal(err)
		}
		rows[sc.Name] = row{mm, wp, p2c}
		for _, r := range []struct {
			name string
			res  Result
		}{{"p2c", p2c}, {"weighted-p2c", wp}, {"minmax", mm}} {
			t.Logf("%-22s %-13s p50=%-8v p99=%-9v p999=%-9v shed=%-5d completed=%d",
				sc.Name, r.name, r.res.P50.Round(time.Microsecond), r.res.P99.Round(time.Microsecond),
				r.res.P999.Round(time.Microsecond), r.res.Shed, r.res.Completed)
		}
	}
	for _, name := range []string{"heterogeneous", "heterogeneous-extreme", "adversarial-flap", "step-degradation"} {
		r, ok := rows[name]
		if !ok {
			t.Fatalf("scenario %s missing from the builtins", name)
		}
		if r.minmax.P99 > r.weighted.P99 {
			t.Errorf("%s: minmax p99 %v > weighted-p2c p99 %v", name, r.minmax.P99, r.weighted.P99)
		}
		if r.minmax.Shed > r.weighted.Shed {
			t.Errorf("%s: minmax shed %d > weighted-p2c shed %d", name, r.minmax.Shed, r.weighted.Shed)
		}
	}

	// Sanity: on the heterogeneous fleet, blind p2c must lose to both
	// capacity-aware rules — otherwise the simulator cannot distinguish
	// them and the gates above are vacuous. (The extreme fleet is the wrong
	// place for this check: there the tail is set by forced {slow,slow}
	// sample pairs that pin the slow queues at cap under every rule, so
	// p99s converge.)
	if r := rows["heterogeneous"]; r.p2c.P99 <= r.weighted.P99 || r.p2c.P99 <= r.minmax.P99 {
		t.Errorf("heterogeneous: p2c p99 %v should exceed weighted %v and minmax %v",
			r.p2c.P99, r.weighted.P99, r.minmax.P99)
	}
}
