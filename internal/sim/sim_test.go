package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestScenarioValidate pins the scripting error paths.
func TestScenarioValidate(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Name: "ok", Seed: 1, Duration: time.Second,
			Arrivals: []Phase{{Until: time.Second, RPS: 10}},
			Shards:   []ShardScript{{Curve: []Segment{{Service: time.Millisecond}}}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*Scenario){
		"no name":          func(s *Scenario) { s.Name = "" },
		"no duration":      func(s *Scenario) { s.Duration = 0 },
		"no arrivals":      func(s *Scenario) { s.Arrivals = nil },
		"no shards":        func(s *Scenario) { s.Shards = nil },
		"rps negative":     func(s *Scenario) { s.Arrivals[0].RPS = -1 },
		"until regression": func(s *Scenario) { s.Arrivals = append(s.Arrivals, Phase{Until: time.Millisecond}) },
		"empty curve":      func(s *Scenario) { s.Shards[0].Curve = nil },
		"zero service":     func(s *Scenario) { s.Shards[0].Curve[0].Service = 0 },
		"service too long": func(s *Scenario) { s.Shards[0].Curve[0].Service = maxSpan + 1 },
		"duration too long": func(s *Scenario) {
			s.Duration = maxSpan + 1
			s.Arrivals[0].Until = s.Duration
		},
		"negative probe":      func(s *Scenario) { s.ProbeInterval = -1 },
		"probe past duration": func(s *Scenario) { s.ProbeInterval = s.Duration + 1 },
	} {
		sc := base()
		breakIt(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// TestBuiltinsValid checks every CI scenario is runnable and the suite is
// big enough to mean something.
func TestBuiltinsValid(t *testing.T) {
	builtins := Builtins()
	if len(builtins) < 6 {
		t.Fatalf("want ≥ 6 builtin scenarios, have %d", len(builtins))
	}
	seen := map[string]bool{}
	for _, sc := range builtins {
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin %s: %v", sc.Name, err)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate builtin name %s", sc.Name)
		}
		seen[sc.Name] = true
		if got, err := Builtin(sc.Name); err != nil || got.Name != sc.Name {
			t.Errorf("Builtin(%s): %v", sc.Name, err)
		}
	}
	if _, err := Builtin("no-such-scenario"); err == nil {
		t.Error("Builtin(no-such-scenario) did not fail")
	}
}

// TestScenarioJSONRoundTrip: scenarios survive the file format loadgen
// replays from.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, sc := range Builtins() {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: marshal: %v", sc.Name, err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", sc.Name, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", sc.Name, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: JSON round trip changed the scenario", sc.Name)
		}
	}
}

// TestDeterministic is the core guarantee: the same seed produces a
// byte-identical scenario report, twice, for every builtin.
func TestDeterministic(t *testing.T) {
	report := func() []byte {
		t.Helper()
		var results []Result
		for _, sc := range Builtins() {
			r, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
		data, err := Report(results)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(report(), report()) {
		t.Fatal("same seeds produced different reports")
	}
}

// checkConservation: every arrival resolves to exactly one of completed or
// shed, and per-shard completions sum to the total.
func checkConservation(t *testing.T, r Result) {
	t.Helper()
	if r.Completed+r.Shed != r.Arrivals {
		t.Errorf("%s: completed %d + shed %d != arrivals %d", r.Scenario, r.Completed, r.Shed, r.Arrivals)
	}
	var sum uint64
	for _, c := range r.ShardCompleted {
		sum += c
	}
	if sum != r.Completed {
		t.Errorf("%s: shard completions sum %d != completed %d", r.Scenario, sum, r.Completed)
	}
}

// TestConservation checks conservation on every builtin, none of which may
// be an empty run.
func TestConservation(t *testing.T) {
	for _, sc := range Builtins() {
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if r.Arrivals == 0 || r.Completed == 0 {
			t.Errorf("%s: empty run (arrivals=%d completed=%d)", sc.Name, r.Arrivals, r.Completed)
		}
		checkConservation(t, r)
	}
}

// fuzzWorkLimit bounds the expected arrivals and probe rounds of a fuzzed
// scenario that FuzzScenario runs: a valid scenario may script any amount
// of work, and the fuzzer should spend its time on shapes, not sizes.
const fuzzWorkLimit = 20000

// FuzzScenario feeds arbitrary bytes through the scenario parser; every
// scenario Validate accepts must run to completion (small ones are run) and
// conserve requests.
func FuzzScenario(f *testing.F) {
	for _, sc := range Builtins() {
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"negative-probe","seed":1,"duration_ns":1000000000,"probe_interval_ns":-1,` +
		`"arrivals":[{"until_ns":1000000000,"rps":100}],` +
		`"shards":[{"curve":[{"service_ns":2000000}]},{"curve":[{"service_ns":2000000}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := parseScenario(data)
		if err != nil {
			return
		}
		if expectedArrivals(sc) > fuzzWorkLimit || probeRounds(sc) > fuzzWorkLimit {
			return
		}
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("validated scenario failed to run: %v", err)
		}
		checkConservation(t, r)
	})
}

// expectedArrivals is the mean arrival count of sc's schedule.
func expectedArrivals(sc Scenario) float64 {
	var n float64
	from := time.Duration(0)
	for _, p := range sc.Arrivals {
		until := p.Until
		if until > sc.Duration {
			until = sc.Duration
		}
		if until > from {
			n += p.RPS * (until - from).Seconds()
			from = until
		}
	}
	return n
}

// probeRounds is how many simulated probe rounds sc's run books.
func probeRounds(sc Scenario) float64 {
	every := sc.ProbeInterval
	if every == 0 {
		every = 250 * time.Millisecond
	}
	return float64(sc.Duration) / float64(every)
}

// ExampleReport keeps the report shape stable for doc readers.
func ExampleReport() {
	sc := Scenario{
		Name: "tiny", Seed: 7, Duration: 500 * time.Millisecond,
		Arrivals: []Phase{{Until: 500 * time.Millisecond, RPS: 100}},
		Shards: []ShardScript{
			{Curve: []Segment{{Service: 2 * time.Millisecond}}},
			{Curve: []Segment{{Service: 2 * time.Millisecond}}},
		},
	}
	r, err := Run(sc)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(r.Scenario, r.Arrivals == r.Completed+r.Shed)
	// Output: tiny true
}
