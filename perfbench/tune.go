package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"autoblox"
	"autoblox/internal/autodb"
	"autoblox/internal/core"
	"autoblox/internal/dist"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// The tune workloads mirror `autoblox tune -target Database -requests
// 20000 -iters 6`, scalar on the local pool (tune-database) or
// perf/power/lifetime Pareto on a two-worker loopback fleet
// (pareto-fleet).
const (
	tuneTarget     = "Database"
	tuneRequests   = 20000
	tuneIterations = 6
	tuneParallel   = 2 // local pool slots, or loopback workers
	paretoAxes     = "perf,power,lifetime"
	// frameworkSeed is the program's own RNG seed (clustering, pruning
	// samples, the tuner), fixed at the CLI's default: the benchmark's
	// seed varies only the generated traces the program is given.
	frameworkSeed = 42
)

type tuneWorkload struct{ pareto bool }

// tuneFixture is one repeat's freshly built world: generator factories,
// a Framework over a new temp AutoDB with no persistent cache, and (for
// pareto-fleet) a fleet whose workers have completed their handshakes.
type tuneFixture struct {
	dir       string
	probe     *simProbe
	factories []trace.SourceFactory
	spec      ssdconf.ObjectiveSpec
	fleet     *dist.Fleet
	backend   *timedBackend // traced fleet runs only
	fw        *autoblox.Framework
	reg       *obs.Registry // the Framework's metric registry (untraced)
}

func (w tuneWorkload) build(env *runEnv, traced bool) (*tuneFixture, error) {
	dir, err := os.MkdirTemp(env.tmp, "tune-")
	if err != nil {
		return nil, err
	}
	mode := probeCount
	if traced {
		mode = probeFull
	}
	fx := &tuneFixture{dir: dir, probe: &simProbe{mode: mode}}
	for _, cat := range workload.Studied() {
		f, err := workload.Factory(cat, workload.Options{Requests: tuneRequests, Seed: env.seed})
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.factories = append(fx.factories, fx.probe.wrap(f))
	}
	opts := autoblox.Options{
		DBPath:   filepath.Join(dir, "autoblox.db"),
		Seed:     frameworkSeed,
		Parallel: tuneParallel,
		Tuner:    autoblox.TunerOptions{MaxIterations: tuneIterations},
	}
	if w.pareto {
		if fx.spec, err = autoblox.ParseObjectives(paretoAxes); err != nil {
			fx.close()
			return nil, err
		}
		opts.Objectives = fx.spec
		if err := fx.startFleet(env.seed); err != nil {
			fx.close()
			return nil, err
		}
		if traced {
			fx.backend = &timedBackend{inner: fx.fleet.Backend()}
			opts.Backend = fx.backend
		} else {
			opts.Backend = fx.fleet.Backend()
		}
	}
	if !traced {
		// A registry, as `autoblox tune -metrics` sets one, gives the
		// validator's own tallies for the accounting checks.
		fx.reg = obs.NewRegistry()
		opts.Metrics = fx.reg
		if fx.fw, err = autoblox.New(autoblox.DefaultConstraints(), opts); err != nil {
			fx.close()
			return nil, err
		}
	}
	return fx, nil
}

// startFleet starts two loopback workers (one simulation each) over an
// environment that regenerates the same seeded traces worker-side, and
// waits until both have completed their handshakes.
func (fx *tuneFixture) startFleet(seed int64) error {
	specs := make(map[string][]dist.WorkloadSpec)
	for _, cat := range workload.Studied() {
		specs[string(cat)] = []dist.WorkloadSpec{{Category: string(cat), Requests: tuneRequests, Seed: seed}}
	}
	denv, err := dist.NewEnv(autoblox.DefaultConstraints(), false, ssd.FaultProfile{}, specs)
	if err != nil {
		return err
	}
	denv.SetObjectives(fx.spec)
	fx.fleet, err = dist.StartFleet(denv, dist.FleetOptions{Workers: tuneParallel, WorkerParallel: 1})
	if err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		connected := 0
		for _, ws := range fx.fleet.Status().Workers {
			if ws.Connected {
				connected++
			}
		}
		if connected == tuneParallel {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d workers connected after 30s", connected, tuneParallel)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (fx *tuneFixture) close() {
	if fx.fw != nil {
		fx.fw.Close()
	}
	if fx.fleet != nil {
		fx.fleet.Close()
	}
	os.RemoveAll(fx.dir)
}

// remoteJobs counts measurements the fleet completed (0 without one).
func (fx *tuneFixture) remoteJobs() int64 {
	if fx.fleet == nil {
		return 0
	}
	return fx.fleet.Backend().Stats().Jobs
}

func (w tuneWorkload) setupOnly(env *runEnv) (time.Duration, error) {
	t0 := time.Now()
	fx, err := w.build(env, false)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	fx.close()
	return d, nil
}

func (w tuneWorkload) run(env *runEnv, traced bool) (*repeat, error) {
	t0 := time.Now()
	fx, err := w.build(env, traced)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	rep := &repeat{setups: []float64{time.Since(t0).Seconds()}}
	prepareRSS()
	if traced {
		err = w.runTraced(env, fx, rep)
	} else {
		err = w.runFramework(env, fx, rep)
	}
	rep.rssMB = []float64{peakRSSMB()}
	return rep, err
}

// runFramework is the timed end-to-end path: exactly what the CLI's
// tune subcommand does once its Framework exists.
func (w tuneWorkload) runFramework(env *runEnv, fx *tuneFixture, rep *repeat) error {
	if n, err := fx.fw.DB.NumClusters(); err != nil || n != 0 {
		return fmt.Errorf("isolation: fresh AutoDB holds %d clusters (%v)", n, err)
	}
	t0 := time.Now()
	if err := fx.fw.LearnWorkloadSources(fx.factories); err != nil {
		return err
	}
	learnCalls := fx.probe.calls.Load()
	res, err := fx.fw.TuneContext(env.ctx, tuneTarget)
	rep.wall = time.Since(t0)
	if err != nil {
		return err
	}
	drawn, remote := fx.probe.calls.Load()-learnCalls, fx.remoteJobs()
	rep.sims = drawn + remote
	if st := fx.fw.PersistentCacheStats(); st.Hits != 0 {
		rep.fail("isolation: %d persistent-cache hits without a cache dir", st.Hits)
	}
	// Accounting over the whole TuneContext: the validator's registry
	// tallies of fresh outcomes must match what the benchmark saw from
	// outside, sources drawn after learning and jobs the fleet completed.
	sims := fx.reg.Counter(core.MetricSimRuns).Value()
	remoteRes := fx.reg.Counter(core.MetricRemoteResults).Value()
	if sims != drawn {
		rep.fail("registry counts %d local sims, the run drew %d sources", sims, drawn)
	}
	if remoteRes != remote {
		rep.fail("registry counts %d remote results, the fleet completed %d jobs", remoteRes, remote)
	}
	if n := fx.reg.Histogram(core.MetricSimTime).Count(); n != sims {
		rep.fail("%d sim-time samples for %d local sims", n, sims)
	}
	if rep.sims == 0 {
		rep.fail("the tune ran no fresh sims")
	}
	if int64(res.SimRuns) > rep.sims {
		rep.fail("tune loop reports %d sims, more than the %d the run drew", res.SimRuns, rep.sims)
	}
	rep.digest = w.digest(res, rep.sims)
	rep.summary = w.summary(res, rep.sims)
	return nil
}

// digest pins the run's output: the best configuration, its grade and
// the simulation count (scalar), or every front point's configuration
// and objective vector plus the hypervolume (Pareto).
func (w tuneWorkload) digest(res *core.TuneResult, sims int64) string {
	h := sha256.New()
	if w.pareto {
		for _, p := range res.Front {
			fmt.Fprintf(h, "%s|%.17g|%.17g|%d\n", p.Cfg.Key(), p.Grade, p.PowerWatts, p.LifetimeNS)
		}
		fmt.Fprintf(h, "hv=%.17g\n", res.Hypervolume)
	} else {
		fmt.Fprintf(h, "%s|%.17g|%d\n", res.Best.Key(), res.BestGrade, sims)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func (w tuneWorkload) summary(res *core.TuneResult, sims int64) string {
	if w.pareto {
		return fmt.Sprintf("front %d points, hypervolume %.4f, best grade %.4f, %d sims",
			len(res.Front), res.Hypervolume, res.BestGrade, sims)
	}
	return fmt.Sprintf("best grade %.4f after %d iterations, %d sims (%d in the tune loop)",
		res.BestGrade, res.Iterations, sims, res.SimRuns)
}

// phaseStats is a validator-counter snapshot taken at a phase boundary.
type phaseStats struct {
	at                           time.Time
	stats                        core.ValidatorStats
	regSims, regHits             int64 // registry tallies of the same outcomes
	regCoal, regRemote           int64
	sourcesDrawn, remoteReturned int64 // observed by the benchmark itself
}

type phaseSpan struct {
	name     string
	id       int
	from, to phaseStats
}

// runTraced drives the same pipeline layer by layer through the core
// functions the Framework calls — clustering, the reference pass,
// fine-prune, the tune loop — recording a span and the validator's
// counter deltas around each.
func (w tuneWorkload) runTraced(env *runEnv, fx *tuneFixture, rep *repeat) error {
	tr := env.tracer
	lay := map[string]float64{}
	rep.layers = lay
	t0 := time.Now()
	root := tr.begin("pipeline", 0, t0)

	// Clustering: PCA + k-means over windowed trace features.
	srcs := make([]trace.Source, len(fx.factories))
	for i, f := range fx.factories {
		srcs[i] = f()
	}
	c, err := core.TrainClustererSources(srcs, core.ClustererConfig{Seed: frameworkSeed, AutoAdjustThreshold: true})
	if err != nil {
		return err
	}
	tClust := time.Now()
	tr.add("clusterer.train", root, interval{t0, tClust})
	lay["clusterer.train_s"] = tClust.Sub(t0).Seconds()

	// AutoDB: the Framework persists the model and the tuning order.
	db, err := autodb.Open(filepath.Join(fx.dir, "traced.db"))
	if err != nil {
		return err
	}
	defer db.Close()
	tDB := time.Now()
	blob, err := c.Marshal()
	if err != nil {
		return err
	}
	if err := db.SaveModel(blob); err != nil {
		return err
	}
	dbTime := time.Since(tDB)

	groups := make(map[string][]trace.SourceFactory, len(srcs))
	for i, s := range srcs {
		groups[s.Name()] = []trace.SourceFactory{fx.factories[i]}
	}
	space := ssdconf.NewSpace(autoblox.DefaultConstraints())
	space.Objectives = fx.spec
	v := core.NewValidatorSources(space, groups)
	v.Parallel = tuneParallel
	reg := obs.NewRegistry()
	v.Obs = reg
	if fx.backend != nil {
		v.Backend = fx.backend
	}
	if n, st := len(v.SnapshotCache()), v.Stats(); n != 0 || st.SimRuns+st.CacheHits != 0 {
		rep.fail("isolation: new validator starts with %d cached entries, %d sims, %d hits", n, st.SimRuns, st.CacheHits)
	}
	refCfg := space.FromDevice(ssd.Intel750())
	fx.probe.calls.Store(0) // clustering drew its own sources

	snap := func() phaseStats {
		return phaseStats{
			at:             time.Now(),
			stats:          v.Stats(),
			regSims:        reg.Counter(core.MetricSimRuns).Value(),
			regHits:        reg.Counter(core.MetricCacheHits).Value(),
			regCoal:        reg.Counter(core.MetricCoalesced).Value(),
			regRemote:      reg.Counter(core.MetricRemoteResults).Value(),
			sourcesDrawn:   fx.probe.calls.Load(),
			remoteReturned: fx.remoteOK(),
		}
	}
	var phases []phaseSpan
	phase := func(name string, fn func() error) error {
		from := snap()
		id := tr.begin(name, root, from.at)
		err := fn()
		to := snap()
		tr.end(id, to.at)
		phases = append(phases, phaseSpan{name: name, id: id, from: from, to: to})
		return err
	}

	var g *core.Grader
	if err := phase("grader.reference", func() (err error) {
		g, err = core.NewGrader(env.ctx, v, refCfg, core.DefaultAlpha, core.DefaultBeta)
		return err
	}); err != nil {
		return err
	}
	var order []string
	phase("prune.fine", func() error {
		// The Framework tunes without an order when fine-prune fails.
		if fine, err := core.FinePrune(env.ctx, v, g, tuneTarget, refCfg, nil, core.PruneOptions{Seed: frameworkSeed}); err == nil {
			order = fine.Order
		}
		return nil
	})
	tDB = time.Now()
	if id := c.ClusterOf(tuneTarget); id >= 0 {
		if err := db.PutOrder(id, order); err != nil {
			return err
		}
	}
	dbTime += time.Since(tDB)
	lay["autodb.write_ms"] = dbTime.Seconds() * 1e3

	var res *core.TuneResult
	var iterEnds []time.Time
	if err := phase("tuner.tune", func() error {
		opts := core.TunerOptions{
			Alpha: core.DefaultAlpha, Beta: core.DefaultBeta, Seed: frameworkSeed,
			MaxIterations:  tuneIterations,
			UseTuningOrder: len(order) > 0, Order: order,
			OnIteration: func(int, float64) { iterEnds = append(iterEnds, time.Now()) },
		}
		t, err := core.NewTuner(space, v, g, opts)
		if err != nil {
			return err
		}
		res, err = t.Tune(env.ctx, tuneTarget, []ssdconf.Config{refCfg})
		return err
	}); err != nil {
		return err
	}
	end := time.Now()
	rep.wall = end.Sub(t0)
	tr.end(root, end)
	tune := phases[len(phases)-1]
	for i, e := range iterEnds {
		start := tune.from.at
		if i > 0 {
			start = iterEnds[i-1]
		}
		tr.add(fmt.Sprintf("tuner.iteration.%d", i+1), tune.id, interval{start, e})
	}

	rep.sims = fx.probe.calls.Load() + fx.remoteOK()
	rep.digest = w.digest(res, rep.sims)
	rep.summary = w.summary(res, rep.sims)

	// Accounting law, per phase: every MeasureTrace call resolves as
	// exactly one of a fresh local simulation, a cache hit, a coalesced
	// wait or a remote result. The validator's atomic stats and its
	// registry counters are two separate tallies of those outcomes; the
	// fresh ones must also match what the benchmark itself observed
	// (sources drawn, fleet results returned).
	simSpans := fx.simSpans()
	phaseSum := tClust.Sub(t0)
	for _, p := range phases {
		a, b := p.from, p.to
		sims := b.stats.SimRuns - a.stats.SimRuns
		hits := b.stats.CacheHits - a.stats.CacheHits
		coal := b.stats.CoalescedWaits - a.stats.CoalescedWaits
		remote := b.stats.RemoteResults - a.stats.RemoteResults
		calls := (b.regSims - a.regSims) + (b.regHits - a.regHits) +
			(b.regCoal - a.regCoal) + (b.regRemote - a.regRemote)
		if sims+hits+coal+remote != calls {
			rep.fail("%s: SimRuns+CacheHits+CoalescedWaits+RemoteResults = %d+%d+%d+%d != %d calls",
				p.name, sims, hits, coal, remote, calls)
		}
		if got := b.sourcesDrawn - a.sourcesDrawn; got != sims {
			rep.fail("%s: %d local simulations drew %d sources", p.name, sims, got)
		}
		if got := b.remoteReturned - a.remoteReturned; got != remote {
			rep.fail("%s: validator counted %d remote results, the fleet returned %d", p.name, remote, got)
		}
		span := interval{a.at, b.at}
		phaseSum += span.end.Sub(span.start)
		lay[p.name+"_s"] = span.end.Sub(span.start).Seconds()
		lay[p.name+"_sims"] = float64(sims + remote)
		lay[p.name+"_self_s"] = selfTime(span, simSpans).Seconds()
	}
	if gap := rep.wall - phaseSum; gap < 0 || float64(gap) > 0.05*float64(rep.wall) {
		rep.fail("phase spans sum to %v of a %v traced wall (more than 5%% apart)", phaseSum, rep.wall)
	}
	if int64(res.SimRuns) != int64(lay["tuner.tune_sims"]) {
		rep.fail("tune loop reports %d sims, its phase counted %v", res.SimRuns, lay["tuner.tune_sims"])
	}
	lay["tuner.iterations"] = float64(res.Iterations)
	lay["tuner.best_grade"] = res.BestGrade
	lay["tuner.front_size"] = float64(len(res.Front))
	lay["tuner.front_hypervolume"] = res.Hypervolume

	// Validator layer, over the whole pipeline after clustering.
	st := v.Stats()
	calls := st.SimRuns + st.CacheHits + st.CoalescedWaits + st.RemoteResults
	lay["validator.calls"] = float64(calls)
	lay["validator.cache_hits"] = float64(st.CacheHits)
	lay["validator.coalesced"] = float64(st.CoalescedWaits)
	if calls > 0 {
		lay["validator.hit_ratio"] = float64(st.CacheHits+st.CoalescedWaits) / float64(calls)
	}
	lay["validator.queue_wait_s"] = st.Backend.QueueWait.Seconds()
	lay["validator.sim_busy_s"] = st.Backend.SimBusy.Seconds()
	validated := end.Sub(tClust).Seconds()
	lay["validator.utilization"] = st.Backend.SimBusy.Seconds() / (tuneParallel * validated)
	simMS := make([]float64, len(simSpans))
	for i, s := range simSpans {
		simMS[i] = float64(s.end.Sub(s.start)) / 1e6
		tr.add("sim", 0, s)
	}
	putDistribution(lay, "validator.sim_ms", simMS)

	if fx.fleet != nil {
		fs := fx.fleet.Status()
		lay["dist.leases_granted"] = float64(fs.LeasesGranted)
		lay["dist.leases_expired"] = float64(fs.LeasesExpired)
		lay["dist.leases_reassigned"] = float64(fs.LeasesReassigned)
		lay["dist.duplicate_results"] = float64(fs.DuplicateResults)
		bs := fx.fleet.Backend().Stats()
		lay["dist.queue_wait_s"] = bs.QueueWait.Seconds()
		lay["dist.sim_busy_s"] = bs.SimBusy.Seconds()
		var measured time.Duration
		for _, s := range simSpans {
			measured += s.end.Sub(s.start)
		}
		// Time spent in Measure that was neither queueing nor worker-side
		// execution: leases, the wire codec and result application.
		lay["dist.overhead_s"] = (measured - bs.QueueWait - bs.SimBusy).Seconds()
		putDistribution(lay, "dist.measure_ms", simMS)
		var busy int64
		for _, ws := range bs.Workers {
			busy += ws.BusyNS
		}
		lay["dist.worker_utilization"] = float64(busy) / 1e9 / (tuneParallel * validated)
	}
	putSimTimings(lay, fx.probe.timings())
	return nil
}

// remoteOK counts successful fleet measurements seen by the traced
// decorator (0 for local runs).
func (fx *tuneFixture) remoteOK() int64 {
	if fx.backend == nil {
		return 0
	}
	return fx.backend.ok.Load()
}

// simSpans returns every fresh simulation's span: source drawn to end
// of stream for local sims, Measure call to result for fleet sims.
func (fx *tuneFixture) simSpans() []interval {
	if fx.backend != nil {
		return fx.backend.measured()
	}
	var out []interval
	for _, s := range fx.probe.timings() {
		out = append(out, interval{s.start, s.end})
	}
	return out
}

// putDistribution records the median, the highest percentile with at
// least ten samples beyond it, which percentile that is, and the count.
func putDistribution(lay map[string]float64, name string, xs []float64) {
	lay[name+".p50"] = median(xs)
	q := tailQuantile(len(xs))
	lay[name+".tail_pct"] = q * 100
	if q > 0 {
		lay[name+".tail"] = quantile(xs, q)
	}
	lay[name+".count"] = float64(len(xs))
}

// putSimTimings folds per-simulation source timings into the ssd
// layer's setup/warm-up/replay split.
func putSimTimings(lay map[string]float64, sims []simTiming) {
	if len(sims) == 0 {
		return
	}
	var setup, warm, replay time.Duration
	var reqs int64
	var setupMS []float64
	for _, s := range sims {
		setup += s.setup()
		warm += s.warmup()
		replay += s.replay()
		reqs += s.requests
		setupMS = append(setupMS, float64(s.setup())/1e6)
	}
	lay["ssd.sims_timed"] = float64(len(sims))
	lay["ssd.setup_s"] = setup.Seconds()
	lay["ssd.warmup_s"] = warm.Seconds()
	lay["ssd.replay_s"] = replay.Seconds()
	lay["ssd.setup_share"] = float64(setup) / float64(setup+warm+replay)
	lay["ssd.setup_ms.p50"] = median(setupMS)
	if reqs > 0 {
		lay["ssd.replay_ns_per_req"] = float64(replay.Nanoseconds()) / float64(reqs)
	}
}
