package shard

import (
	"testing"
)

// pickCounts runs n picks over cands and tallies the winners.
func pickCounts(t *testing.T, p Placer, cands []Candidate, n int) []int {
	t.Helper()
	counts := make([]int, len(cands))
	for k := 0; k < n; k++ {
		i := p.Pick(cands)
		if i < 0 || i >= len(cands) {
			t.Fatalf("Pick returned %d for %d candidates", i, len(cands))
		}
		counts[i]++
	}
	return counts
}

// TestMinMaxPrefersAdvertisedCapacity: when both sampled shards advertise,
// load per advertised weight decides, whatever the service times say.
func TestMinMaxPrefersAdvertisedCapacity(t *testing.T) {
	p := NewPlacer(1)
	// Equal load, shard 1 advertises 10× the service rate but reports the
	// slower service time: the advertisement must win every sampled pair.
	cands := []Candidate{
		{ID: 0, Load: 3, Service: 100, AdvertisedWeight: 10},
		{ID: 1, Load: 3, Service: 900, AdvertisedWeight: 100},
	}
	counts := pickCounts(t, p, cands, 200)
	if counts[0] != 0 {
		t.Fatalf("advertised weights ignored: %v", counts)
	}
	// Load still counts: 20× the backlog outweighs 10× the capacity.
	cands[1].Load = 80
	counts = pickCounts(t, p, cands, 200)
	if counts[1] != 0 {
		t.Fatalf("load per advertised weight not compared: %v", counts)
	}
}

// TestPlacerUsesServiceOnlyWhenBothReport: a pair falls back from
// advertised weights to service time only when both candidates report one;
// a pair mixing measured and unmeasured shards compares load alone.
func TestPlacerUsesServiceOnlyWhenBothReport(t *testing.T) {
	p := NewPlacer(1)
	// Shard 0 is 10× slower by service time but shard 1 is unmeasured, and
	// shard 1 alone advertises: the pair compares on load (0 wins).
	mixed := []Candidate{
		{ID: 0, Load: 1, Service: 1000},
		{ID: 1, Load: 2, Service: 0, AdvertisedWeight: 50},
	}
	counts := pickCounts(t, p, mixed, 200)
	if counts[0] == 0 || counts[1] != 0 {
		t.Fatalf("mixed pair should fall back to load (0 wins): %v", counts)
	}
	// Both measured, one advertising: the slow shard loses despite equal
	// load.
	both := []Candidate{
		{ID: 0, Load: 1, Service: 1000, AdvertisedWeight: 50},
		{ID: 1, Load: 1, Service: 10},
	}
	counts = pickCounts(t, p, both, 200)
	if counts[1] == 0 || counts[0] != 0 {
		t.Fatalf("measured pair should prefer the fast shard: %v", counts)
	}
}

// TestPlacerTieBreaksRoundRobin: equal scores fall to the round-robin
// cursor over the whole candidate slice, so picks spread instead of one
// shard absorbing every tie; an unequal load still wins outright.
func TestPlacerTieBreaksRoundRobin(t *testing.T) {
	p := NewPlacer(1)
	cands := []Candidate{
		{ID: 0, Load: 5, Service: 100},
		{ID: 1, Load: 5, Service: 100},
		{ID: 2, Load: 5, Service: 100},
	}
	counts := pickCounts(t, p, cands, 900)
	for i, c := range counts {
		if c < 200 {
			t.Fatalf("ties skewed: counts=%v (shard %d)", counts, i)
		}
	}
	cands[0].Load = 0
	counts = pickCounts(t, p, cands, 900)
	if counts[0] < counts[1] || counts[0] < counts[2] {
		t.Fatalf("the lightest shard did not dominate: %v", counts)
	}
}

// TestPlacerDeterministic: the same seed over the same candidates gives the
// same pick sequence, ties included.
func TestPlacerDeterministic(t *testing.T) {
	cands := []Candidate{
		{ID: 0, Load: 1},
		{ID: 1, Load: 2},
		{ID: 2, Load: 3},
		{ID: 3, Load: 1},
	}
	a, b := NewPlacer(42), NewPlacer(42)
	for k := 0; k < 1000; k++ {
		if ia, ib := a.Pick(cands), b.Pick(cands); ia != ib {
			t.Fatalf("pick %d diverged under the same seed: %d vs %d", k, ia, ib)
		}
	}
}
