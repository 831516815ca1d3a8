package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/tensor"
)

// trialRecord is what one campaign trial observed.
type trialRecord struct {
	start, end time.Time
	ops        uint64
	retries    uint64
	tripped    bool
}

// campaign runs a fixed, seeded set of fault-injection trials over
// HybridNetwork.Classify with transient-fault ALUs, repeating the set until
// the time is up. Trial i runs mode i mod 4 (plain, temporal DMR, spatial
// DMR, TMR) at fault rate ⌊i/4⌋ mod rates on input ⌊i/(4·rates)⌋ mod
// inputs, and every outcome is decided against that input's fault-free
// verdict. The low rate leaves single faults for retry and voting to
// repair; the high one also trips the leaky bucket. Every repetition must reproduce the
// first one's tally exactly; the fault counts and SDC share come from the
// first, so they repeat exactly for a fixed seed.
func campaign(env *env, dur time.Duration, rec *recorder) (*outcome, error) {
	ins, err := makeInputs(env.seed+1, env.cfg.CampaignInputs, env.cfg.ImageSize)
	if err != nil {
		return nil, err
	}
	imgs, err := decodeAll(ins)
	if err != nil {
		return nil, err
	}
	n := env.cfg.CampaignTrials
	var h *core.HybridNetwork
	var refs []core.Result
	trial := func(pass int, recs []trialRecord) fault.IndexedTrial {
		return func(i int) (bool, bool, error) {
			id := rec.id()
			start := time.Now()
			res, err := injectedClassify(env, h, imgs[inputOf(env, i, len(imgs))], i)
			end := time.Now()
			rec.add(id, 0, int64(pass)<<32|int64(i), "fault.trial", start, end)
			// A classification that errors under injection is a detected
			// unrecoverable error, never a wrong verdict handed on.
			correct := err == nil && sameOutput(res, refs[inputOf(env, i, len(imgs))])
			signalled := err != nil || res.Decision == core.DecisionExecutionFailed || res.Stats.Retries > 0
			recs[i] = trialRecord{start: start, end: end,
				ops: res.Stats.Ops, retries: res.Stats.Retries, tripped: res.Bucket.Tripped}
			return correct, signalled, nil
		}
	}

	build := func() error {
		if h, _, err = cli.DemoHybrid(env.cfg.ImageSize, env.cfg.Conv1Filters, env.seed); err != nil {
			return err
		}
		_, err := injectedClassify(env, h, imgs[0], 0)
		return err
	}
	before, after := env.setupReps()
	setups, err := env.timeSetups(before, build, nil)
	if err != nil {
		return nil, err
	}
	if refs, err = fullReferences(h, imgs); err != nil {
		return nil, err
	}

	o := newOutcome()
	var first fault.Tally
	var firstRecs, all []trialRecord
	var passS, passP50, passP90 []float64
	start := time.Now()
	end := start.Add(dur)
	o.mem.start()
	for pass := 0; pass == 0 || len(passS) == 0 || time.Now().Before(end); pass++ {
		recs := make([]trialRecord, n)
		passStart := time.Now()
		tally, err := fault.RunCampaignParallel(n, env.workers, trial(pass, recs))
		if err != nil {
			return nil, err
		}
		if !passStart.Before(start.Add(env.warmup(dur))) {
			passS = append(passS, time.Since(passStart).Seconds())
			lat := make([]float64, n)
			for i, r := range recs {
				lat[i] = ms(r.end.Sub(r.start))
			}
			passP50 = append(passP50, quantile(lat, 0.5))
			passP90 = append(passP90, quantile(lat, 0.9))
		}
		o.attempted += n
		if pass == 0 {
			first, firstRecs = tally, recs
		} else if tally != first {
			o.mismatches += n
			o.failed += n
		}
		all = append(all, recs...)
	}
	o.mem.stop()
	late, err := env.timeSetups(after, build, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, late...)

	if len(passS) == 0 {
		return nil, fmt.Errorf("no whole campaign pass after the warm-up; raise --seconds")
	}
	// Every pass runs the same trials, so passes are the slices: throughput
	// and the trial latency quantiles are trimmed means over passes.
	o.ops = len(all)
	o.set("setup_s", median(setups), len(setups))
	o.set("throughput_per_s", float64(n)/env.overSlices(passS), len(passS)*n)
	o.set("latency_p50_ms", env.overSlices(passP50), len(passP50)*n)
	o.set("latency_p90_ms", env.overSlices(passP90), len(passP90)*n)
	if rec == nil {
		return o, nil
	}
	var ops, retries, trips float64
	for _, r := range firstRecs {
		ops += float64(r.ops)
		retries += float64(r.retries)
		if r.tripped {
			trips++
		}
	}
	o.layers["fault.trial_ms_p50"] = median(rec.layers()["fault.trial"].durs())
	o.layers["fault.masked"] = float64(first.Masked)
	o.layers["fault.corrected"] = float64(first.Corrected)
	o.layers["fault.detected"] = float64(first.Detected)
	o.layers["fault.sdc"] = float64(first.SDC)
	o.layers["fault.sdc_share"] = first.SDCRate()
	o.layers["reliable.ops_per_img"] = ops / float64(n)
	o.layers["reliable.retries"] = retries
	o.layers["reliable.bucket_trips"] = trips
	return o, nil
}

// inputOf is the input index trial i classifies.
func inputOf(env *env, i, inputs int) int {
	return i / (len(redundancyModes) * len(env.cfg.CampaignRates)) % inputs
}

// injectedClassify classifies img with trial i's redundancy mode and fault
// rate on transient-fault ALUs whose streams derive from the seed and i alone, so a
// trial's outcome does not depend on which worker runs it.
func injectedClassify(env *env, h *core.HybridNetwork, img *tensor.Tensor, i int) (core.Result, error) {
	cfg := h.Config()
	cfg.Mode = redundancyModes[i%len(redundancyModes)]
	rate := env.cfg.CampaignRates[i/len(redundancyModes)%len(env.cfg.CampaignRates)]
	aluSeed := env.seed*1_000_003 + int64(i)*8
	cfg.ALUs = func() fault.ALU {
		aluSeed++
		alu, err := fault.NewTransient(rate, fault.BitFlip{Bit: -1}, rand.New(rand.NewSource(aluSeed)))
		if err != nil {
			panic(err) // unreachable: the rates are validated at start-up
		}
		return alu
	}
	ht, err := core.NewHybridNetwork(cfg, h.Net())
	if err != nil {
		return core.Result{}, err
	}
	return ht.Classify(img)
}
