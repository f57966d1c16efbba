package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"autoblox/internal/ssd"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// sim-gc replays write-heavy KVStore streams through the bare simulator,
// once per GC victim policy, on a small, nearly full MLC part so every
// run garbage-collects thousands of times.
const simGCRequests = 200000

// simGCPolicySeedStep separates the three policies' generator seeds
// within a repeat. How much a KVStore stream garbage-collects depends
// strongly on its seed (write amplification from about 1.6 to 7), so
// giving each policy its own stream triples the inputs a run averages
// over. The step keeps the streams of nearby repeat seeds apart.
const simGCPolicySeedStep = 333_334

var simGCPolicies = []ssd.GCPolicy{ssd.GCGreedy, ssd.GCFIFO, ssd.GCCostBenefit}

func simGCParams(policy ssd.GCPolicy) ssd.DeviceParams {
	p := ssd.DefaultParams()
	p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie = 2, 2, 2, 2
	p.BlocksPerPlane, p.PagesPerBlock = 1024, 64
	p.InitialOccupancyFrac = 0.85
	p.OverprovisionRatio = 0.07
	p.GCPolicy = policy
	return p
}

type simGCWorkload struct{}

// simGCFixture holds, per policy, a simulator and its stream's factory.
type simGCFixture struct {
	probe     *simProbe
	factories []trace.SourceFactory
	sims      []*ssd.Simulator
}

func (simGCWorkload) build(env *runEnv, traced bool) (*simGCFixture, error) {
	// Untraced, the probe stamps only each sim's device set-up (newFTL and
	// prefill, from drawing the source to its first Reset): that is
	// sim-gc's setup_s. Building the factories and simulators takes
	// microseconds and is not timed.
	mode := probeSetup
	if traced {
		mode = probeFull
	}
	fx := &simGCFixture{probe: &simProbe{mode: mode}}
	for i, pol := range simGCPolicies {
		seed := env.seed + int64(i)*simGCPolicySeedStep
		f, err := workload.Factory(workload.KVStore, workload.Options{Requests: simGCRequests, Seed: seed})
		if err != nil {
			return nil, err
		}
		sim, err := ssd.NewSimulator(simGCParams(pol))
		if err != nil {
			return nil, err
		}
		fx.factories = append(fx.factories, fx.probe.wrap(f))
		fx.sims = append(fx.sims, sim)
	}
	return fx, nil
}

func (w simGCWorkload) run(env *runEnv, traced bool) (*repeat, error) {
	fx, err := w.build(env, traced)
	if err != nil {
		return nil, err
	}
	rep := &repeat{}
	// Each policy runs as `ssdsim` would, alone: the previous sim's
	// garbage is collected between runs, outside the timed span, and each
	// run's peak resident set is its own sample.
	results := make([]*ssd.Result, len(fx.sims))
	for i, sim := range fx.sims {
		prepareRSS()
		start := time.Now()
		if results[i], err = sim.RunSource(fx.factories[i]()); err != nil {
			return nil, fmt.Errorf("%s: %w", simGCPolicies[i], err)
		}
		rep.wall += time.Since(start)
		rep.rssMB = append(rep.rssMB, peakRSSMB())
	}
	rep.sims = int64(len(results))
	// The sims ran one after another, so timings follow the policies.
	timings := fx.probe.timings()
	if len(timings) != len(results) {
		return nil, fmt.Errorf("probe saw %d sims, %d ran", len(timings), len(results))
	}
	for _, s := range timings {
		rep.setups = append(rep.setups, s.setup().Seconds())
	}

	if rep.digest, err = resultDigest(results); err != nil {
		return nil, err
	}
	var gcRuns, gcProgs, userProgs, erases, cmtHit, cmtMiss, cacheHit, cacheMiss int64
	for i, r := range results {
		checkResult(rep, simGCPolicies[i].String(), r)
		gcRuns += int64(r.GCRuns)
		gcProgs += r.GCPrograms
		userProgs += r.UserPrograms
		erases += r.Erases
		cmtHit, cmtMiss = cmtHit+r.CMTHits, cmtMiss+r.CMTMisses
		cacheHit, cacheMiss = cacheHit+r.CacheHits, cacheMiss+r.CacheMisses
	}
	rep.summary = fmt.Sprintf("WA %.2f/%.2f/%.2f, GC runs %d/%d/%d (greedy/fifo/costbenefit)",
		results[0].WriteAmplification, results[1].WriteAmplification, results[2].WriteAmplification,
		results[0].GCRuns, results[1].GCRuns, results[2].GCRuns)

	if traced {
		lay := map[string]float64{}
		rep.layers = lay
		putSimTimings(lay, timings)
		for i, s := range timings {
			policy := simGCPolicies[i].String()
			lay["ssd.replay_ns_per_req."+policy] = float64(s.replay().Nanoseconds()) / float64(s.requests)
			env.tracer.add("sim."+policy, 0, interval{s.start, s.end})
		}
		lay["ssd.gc_runs"] = float64(gcRuns)
		lay["ssd.gc_programs"] = float64(gcProgs)
		lay["ssd.erases"] = float64(erases)
		lay["ssd.write_amp"] = float64(userProgs+gcProgs) / float64(userProgs)
		lay["ssd.cmt_miss_ratio"] = float64(cmtMiss) / float64(cmtHit+cmtMiss)
		lay["ssd.cache_hit_ratio"] = float64(cacheHit) / float64(cacheHit+cacheMiss)
	}
	return rep, nil
}

// resultDigest hashes every field of the results — all of them are
// modelled quantities, so a pure speed-up leaves the digest unchanged.
func resultDigest(results []*ssd.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16], nil
}

// checkResult asserts laws every modelled result must obey, on any
// seed: this is a GC-bound workload, so GC must run, and the reported
// write amplification must be the ratio of the program counts.
func checkResult(rep *repeat, policy string, r *ssd.Result) {
	if r.GCRuns == 0 || r.Erases == 0 {
		rep.fail("%s: no garbage collection (%d runs, %d erases)", policy, r.GCRuns, r.Erases)
	}
	if r.UserPrograms == 0 {
		rep.fail("%s: no user programs", policy)
		return
	}
	wa := float64(r.UserPrograms+r.GCPrograms) / float64(r.UserPrograms)
	if math.Abs(wa-r.WriteAmplification) > 1e-9*wa {
		rep.fail("%s: write amplification %.6f, counts give %.6f", policy, r.WriteAmplification, wa)
	}
	if r.Requests <= 0 || r.Makespan <= 0 || r.IOPS <= 0 {
		rep.fail("%s: empty measured pass (%d requests, makespan %v)", policy, r.Requests, r.Makespan)
	}
}
