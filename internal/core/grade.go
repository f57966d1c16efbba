package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
)

// ErrTransient marks a measurement failure worth retrying: wrap (or
// return) it from a trace source or simulator shim when the underlying
// cause is expected to clear — a flaky file handle, a remote trace
// store hiccup. The validator retries transient failures up to
// MaxRetries with exponential backoff; every other error (validation
// errors, ErrOutOfSpace degradation, timeouts, panics) is deterministic
// and fails fast.
var ErrTransient = errors.New("core: transient measurement error")

// PanicError is a panic recovered inside a simulation worker, converted
// to an ordinary error so one poisoned configuration cannot take down a
// whole tuning run. The original panic value and stack are preserved
// for the post-mortem.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: simulation panicked: %v", e.Value)
}

// Registry metric names recorded by an instrumented validator. Every
// MeasureTrace call resolves as exactly one of: a cache hit, a coalesced
// wait on another goroutine's in-flight run, a fresh local simulation,
// or a result measured by a remote backend.
const (
	MetricSimRuns       = "validator_sim_runs_total"
	MetricCacheHits     = "validator_cache_hits_total"
	MetricCoalesced     = "validator_coalesced_waits_total"
	MetricRemoteResults = "validator_remote_results_total"
	// MetricQueueWait is the time a fresh simulation waited for a local
	// pool slot; MetricSimTime is its in-simulator time. Comparing the two
	// histograms separates queueing pressure from simulation cost.
	MetricQueueWait = "validator_queue_wait_ns"
	MetricSimTime   = "validator_sim_time_ns"
	MetricDedupWait = "validator_dedup_wait_ns"
)

// Default hyperparameters from the paper's sensitivity studies (§4.6).
const (
	// DefaultAlpha balances latency vs throughput in Formula 1.
	DefaultAlpha = 0.5
	// DefaultBeta balances target vs non-target workloads in Formula 2.
	DefaultBeta = 0.1
)

// simKey identifies one (configuration, trace) simulation in the cache.
// A struct key cannot collide by construction; the former string key
// cfg.Key()+"|"+name was ambiguous for names containing the separator.
type simKey struct {
	cfg  string // ssdconf.Config.Key()
	name string // trace name ("<cluster>#<i>")
}

func cacheKey(cfgKey, name string) simKey { return simKey{cfg: cfgKey, name: name} }

// inflightSim tracks an in-progress simulation so that concurrent
// lookups of the same key wait for the one leader instead of running a
// duplicate simulation (singleflight).
type inflightSim struct {
	done chan struct{}
	perf autodb.Perf
	err  error
	// abandoned reports that the run failed because the leader's own
	// context ended; a waiter whose context is still live must not
	// inherit that error.
	abandoned bool
}

// Validator measures configurations on workloads with the SSD simulator,
// memoizing results: the same (configuration, workload) pair is never
// simulated twice within a tuning session — not even when requested
// concurrently (in-flight simulations are deduplicated, singleflight).
//
// Simulations fan out through one Backend: MeasureBatch hands a whole
// (candidate × cluster × trace) frontier to it concurrently, and the
// backend — the in-process pool with Parallel slots, or a worker fleet
// — bounds the total number of simulations in flight across all
// callers. Because each ssd.Simulator.Run is fully independent and
// deterministic, parallel and serial execution fill the cache with
// bit-identical values.
type Validator struct {
	Space *ssdconf.Space
	// Workloads maps a workload-cluster name to factories for its
	// representative traces (the geometric mean is taken within a
	// cluster, per §3.4). Factories rather than materialized traces:
	// each simulation draws a fresh streaming cursor, so parallel
	// workers never share cursor state or hold duplicate request
	// slices.
	Workloads map[string][]trace.SourceFactory
	// Parallel is the in-process pool's slot count: how many simulations
	// may run concurrently across all measurement calls; 0 (or negative)
	// selects runtime.GOMAXPROCS(0). Set it before the first measurement
	// or Stats call, which build the pool.
	Parallel int
	// Obs, when non-nil, receives detailed metrics (cache hits, dedup
	// waits, queue wait vs in-sim time) and is propagated to every
	// simulator it runs. It never influences measurement results. Set it
	// before the first measurement.
	Obs *obs.Registry
	// SimTimeout, when positive, bounds each individual simulation: a
	// run that exceeds it fails with context.DeadlineExceeded (wrapped).
	// Timeouts are deterministic for a given machine state and are NOT
	// retried — a configuration that simulates slowly once will again.
	SimTimeout time.Duration
	// MaxRetries bounds re-attempts of a simulation that failed with an
	// ErrTransient-wrapped error (50ms exponential backoff between
	// attempts). 0 means no retries.
	MaxRetries int
	// Backend, when non-nil, executes every cold-key measurement —
	// e.g. a dist.Coordinator sharding simulations across a worker
	// fleet. nil selects the in-process pool bounded by Parallel.
	// Because backends must be deterministic, results are bit-identical
	// either way. Set it before the first measurement.
	Backend Backend
	// Persist, when non-nil, is consulted before any cold-key
	// measurement and written after every successful one, carrying the
	// memo cache across process restarts. A persist hit counts as a
	// CacheHit, preserving the accounting law. Set it before the first
	// measurement.
	Persist *PersistentCache

	mu       sync.Mutex
	cache    map[simKey]autodb.Perf
	inflight map[simKey]*inflightSim
	local    *localBackend // default backend (lazy)
	sigCache string        // memoized Space.Signature() (lazy)

	simRuns   atomic.Int64
	cacheHits atomic.Int64
	coalesced atomic.Int64
	remote    atomic.Int64 // results measured by a remote Backend
}

// NewValidator builds a validator over one representative trace per
// cluster.
func NewValidator(space *ssdconf.Space, workloads map[string]*trace.Trace) *Validator {
	m := make(map[string][]trace.SourceFactory, len(workloads))
	for k, tr := range workloads {
		m[k] = []trace.SourceFactory{tr.Factory()}
	}
	return NewValidatorSources(space, m)
}

// NewValidatorSources builds a validator directly over streaming source
// factories — the constant-memory path: no representative trace is ever
// materialized, each simulation re-derives its request stream.
func NewValidatorSources(space *ssdconf.Space, groups map[string][]trace.SourceFactory) *Validator {
	return &Validator{
		Space:     space,
		Workloads: groups,
		cache:     make(map[simKey]autodb.Perf),
		inflight:  make(map[simKey]*inflightSim),
	}
}

// ValidatorStats is a point-in-time snapshot of the validator's
// always-on counters (kept regardless of whether Obs is set).
type ValidatorStats struct {
	// SimRuns counts fresh simulations (distinct cold keys).
	SimRuns int64
	// CacheHits counts MeasureTrace calls served from the memo cache.
	CacheHits int64
	// CoalescedWaits counts calls that waited on another goroutine's
	// in-flight simulation of the same key (singleflight dedup).
	CoalescedWaits int64
	// RemoteResults counts cold keys measured by a remote Backend
	// instead of the local pool. The accounting law extends to
	// SimRuns + CacheHits + CoalescedWaits + RemoteResults == calls.
	RemoteResults int64
	// Backend is the executing backend's own decomposition of where
	// jobs spent their time (queue wait vs execution). Its SimBusy is
	// the one simulator-time figure: summed over concurrent runs, so it
	// exceeds elapsed time under parallel validation.
	Backend BackendStats
}

// Stats snapshots the validator counters.
func (v *Validator) Stats() ValidatorStats {
	return ValidatorStats{
		SimRuns:        v.simRuns.Load(),
		CacheHits:      v.cacheHits.Load(),
		CoalescedWaits: v.coalesced.Load(),
		RemoteResults:  v.remote.Load(),
		Backend:        v.backend().Stats(),
	}
}

// workers resolves the concurrency bound.
func (v *Validator) workers() int {
	if v.Parallel > 0 {
		return v.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// backend resolves the executing backend, building the in-process pool
// with workers() slots on first use when none is configured.
func (v *Validator) backend() Backend {
	if b := v.Backend; b != nil {
		return b
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.local == nil {
		v.local = &localBackend{v: v, slots: make(chan struct{}, v.workers())}
	}
	return v.local
}

// MeasureTrace runs one configuration against one trace, drawing a
// fresh streaming cursor from the factory. Concurrent calls with the
// same (configuration, trace) share a single simulation. Failed or
// cancelled measurements are never cached: a later call with the same
// key re-simulates.
func (v *Validator) MeasureTrace(ctx context.Context, cfg ssdconf.Config, name string, f trace.SourceFactory) (autodb.Perf, error) {
	key := cacheKey(cfg.Key(), name)
	for {
		v.mu.Lock()
		if p, ok := v.cache[key]; ok {
			v.mu.Unlock()
			v.cacheHits.Add(1)
			v.Obs.Counter(MetricCacheHits).Inc()
			return p, nil
		}
		fl, ok := v.inflight[key]
		if !ok {
			break // lead the run below, still holding v.mu
		}
		// Another goroutine is already simulating this key: wait for it
		// rather than duplicating the run. A cancelled waiter abandons
		// the wait; the leader's simulation still completes and fills
		// the cache.
		v.mu.Unlock()
		t0 := time.Now()
		select {
		case <-fl.done:
		case <-ctx.Done():
			v.countCoalesced()
			return autodb.Perf{}, ctx.Err()
		}
		if fl.abandoned && ctx.Err() == nil {
			// The leader's own context ended its run, not the key's
			// measurement: look again, uncounted, as a live caller.
			continue
		}
		v.countCoalesced()
		if r := v.Obs; r != nil {
			r.Histogram(MetricDedupWait).Record(time.Since(t0).Nanoseconds())
		}
		return fl.perf, fl.err
	}
	fl := &inflightSim{done: make(chan struct{})}
	v.inflight[key] = fl
	v.mu.Unlock()

	// The durable cache sits between the memo cache and the backend: a
	// restart-surviving hit skips the simulation entirely and fills the
	// memo cache, counting as a CacheHit so the accounting law holds.
	if p := v.Persist; p != nil {
		if perf, ok := p.Get(v.persistSig(), key.cfg, key.name); ok {
			fl.perf = perf
			v.cacheHits.Add(1)
			v.Obs.Counter(MetricCacheHits).Inc()
			v.mu.Lock()
			v.cache[key] = perf
			delete(v.inflight, key)
			v.mu.Unlock()
			close(fl.done)
			return perf, nil
		}
	}

	fl.perf, fl.err = v.backend().Measure(ctx, Job{Cfg: cfg, Name: name, Src: f})
	if v.Backend != nil && fl.err == nil {
		v.remote.Add(1)
		v.Obs.Counter(MetricRemoteResults).Inc()
	}
	// A SimTimeout deadline lives on a derived context, so only the
	// caller's own cancellation marks the run abandoned.
	fl.abandoned = fl.err != nil && ctx.Err() != nil

	v.mu.Lock()
	if fl.err == nil {
		v.cache[key] = fl.perf
	}
	delete(v.inflight, key) // errors are not cached; a retry re-simulates
	v.mu.Unlock()
	close(fl.done)
	if fl.err == nil && v.Persist != nil {
		v.Persist.Put(v.persistSig(), key.cfg, key.name, fl.perf)
	}
	return fl.perf, fl.err
}

// countCoalesced records one call resolved by another goroutine's run.
func (v *Validator) countCoalesced() {
	v.coalesced.Add(1)
	v.Obs.Counter(MetricCoalesced).Inc()
}

// persistSig lazily computes and caches the space signature that scopes
// every persistent-cache key.
func (v *Validator) persistSig() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.sigCache == "" {
		v.sigCache = v.Space.Signature()
	}
	return v.sigCache
}

// simulate runs one simulation inside a local pool slot, retrying
// ErrTransient failures with exponential backoff (50ms, doubling) up to
// MaxRetries. Deterministic failures — bad parameters, fault-driven
// ErrOutOfSpace, per-simulation timeouts, panics — return on the first
// attempt. The returned duration is the successful attempt's
// in-simulator time (0 on failure), feeding the backend's SimBusy.
func (v *Validator) simulate(ctx context.Context, cfg ssdconf.Config, f trace.SourceFactory) (autodb.Perf, time.Duration, error) {
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		perf, d, err := v.simulateOnce(ctx, cfg, f)
		if err == nil || attempt >= v.MaxRetries || !errors.Is(err, ErrTransient) {
			if err != nil && attempt >= v.MaxRetries && errors.Is(err, ErrTransient) {
				obs.RecordEvent("warn-sim-failed", "cfg", cfg.Key(),
					"attempts", strconv.Itoa(attempt+1), "err", err.Error())
			}
			return perf, d, err
		}
		obs.RecordEvent("sim-retry", "cfg", cfg.Key(),
			"attempt", strconv.Itoa(attempt+1), "err", err.Error())
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return autodb.Perf{}, 0, ctx.Err()
		}
		backoff *= 2
	}
}

// simulateOnce is the uncached single-simulation path. The factory is
// invoked here, inside the pool slot, so each concurrent simulation
// owns a private cursor. A panic anywhere below — the source, the FTL,
// the codec — surfaces as a *PanicError instead of crashing the
// process, and SimTimeout (when set) bounds the attempt.
func (v *Validator) simulateOnce(ctx context.Context, cfg ssdconf.Config, f trace.SourceFactory) (perf autodb.Perf, simDur time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			perf, simDur = autodb.Perf{}, 0
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	dev := v.Space.ToDevice(cfg)
	sim, err := ssd.NewSimulator(dev)
	if err != nil {
		return autodb.Perf{}, 0, fmt.Errorf("core: validator: %w", err)
	}
	sim.Obs = v.Obs
	if v.SimTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, v.SimTimeout)
		defer cancel()
	}
	t0 := time.Now()
	res, err := sim.RunSourceContext(ctx, f())
	if err != nil {
		return autodb.Perf{}, 0, fmt.Errorf("core: validator run: %w", err)
	}
	t1 := time.Now()
	v.simRuns.Add(1)
	v.Obs.Counter(MetricSimRuns).Inc()
	v.Obs.Histogram(MetricSimTime).Record(t1.Sub(t0).Nanoseconds())
	return autodb.Perf{
		LatencyNS:           res.AvgLatency.Nanoseconds(),
		P99LatencyNS:        res.P99Latency.Nanoseconds(),
		ThroughputBps:       res.ThroughputBps,
		EnergyJoules:        res.EnergyJoules,
		PowerWatts:          res.AvgPowerWatts,
		MaxEraseCount:       res.Wear.MaxEraseCount,
		WearImbalance:       res.Wear.Imbalance,
		ProjectedLifetimeNS: res.Wear.ProjectedLifetime.Nanoseconds(),
	}, t1.Sub(t0), nil
}

// CachedPerf is one memoized (configuration, trace) measurement in
// portable form, used by checkpoint files to carry the cache across a
// process restart.
type CachedPerf struct {
	CfgKey string      `json:"cfg"`
	Name   string      `json:"trace"`
	Perf   autodb.Perf `json:"perf"`
}

// SnapshotCache exports the measurement cache in deterministic (CfgKey,
// Name) order. Only completed, error-free measurements are ever in the
// cache, so a snapshot taken at any instant — even mid-batch — is
// consistent.
func (v *Validator) SnapshotCache() []CachedPerf {
	v.mu.Lock()
	out := make([]CachedPerf, 0, len(v.cache))
	for k, p := range v.cache {
		out = append(out, CachedPerf{CfgKey: k.cfg, Name: k.name, Perf: p})
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].CfgKey != out[j].CfgKey {
			return out[i].CfgKey < out[j].CfgKey
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// RestoreCache seeds the measurement cache from a snapshot, so a
// resumed tuning run re-validates nothing it already measured.
func (v *Validator) RestoreCache(entries []CachedPerf) {
	v.mu.Lock()
	for _, e := range entries {
		v.cache[cacheKey(e.CfgKey, e.Name)] = e.Perf
	}
	v.mu.Unlock()
}

// MeasureBatch measures every (configuration × cluster × trace)
// combination, fanning the simulations out through the backend, and
// returns the results: out[i][cl] holds cfgs[i]'s per-trace results in
// the cluster's trace order. Overlapping keys — within the batch or
// against other concurrent callers — trigger exactly one simulation
// each, so SimRuns grows by exactly the number of distinct cold keys.
func (v *Validator) MeasureBatch(ctx context.Context, cfgs []ssdconf.Config, clusters []string) ([]map[string][]autodb.Perf, error) {
	var jobs []Job
	for _, cl := range clusters {
		factories, ok := v.Workloads[cl]
		if !ok || len(factories) == 0 {
			return nil, fmt.Errorf("core: unknown workload cluster %q", cl)
		}
		for _, cfg := range cfgs {
			for i, f := range factories {
				jobs = append(jobs, Job{Cfg: cfg, Name: traceName(cl, i), Src: f})
			}
		}
	}
	perfs, err := v.measureJobs(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]map[string][]autodb.Perf, len(cfgs))
	for i := range out {
		out[i] = make(map[string][]autodb.Perf, len(clusters))
	}
	for _, cl := range clusters {
		n := len(v.Workloads[cl])
		for i := range cfgs {
			out[i][cl], perfs = perfs[:n:n], perfs[n:]
		}
	}
	return out, nil
}

// MeasureConfigs measures many configurations against one explicit
// trace — the batch entry point for the §3.3 pruning sweeps — and
// returns the results in cfgs order.
func (v *Validator) MeasureConfigs(ctx context.Context, cfgs []ssdconf.Config, name string, f trace.SourceFactory) ([]autodb.Perf, error) {
	jobs := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = Job{Cfg: cfg, Name: name, Src: f}
	}
	return v.measureJobs(ctx, jobs)
}

// maxInflight caps the goroutines one batch keeps waiting on the
// backend at once. The backend bounds how many of them simulate; the
// cap only keeps a huge batch from parking a goroutine per job, while
// still keeping a fleet coordinator's queue full.
const maxInflight = 256

// measureJobs hands every job to the backend, at most maxInflight at a
// time, and returns the results in job order. The first error cancels
// the batch and wins: jobs still waiting for a slot start nothing.
// Cancelling ctx returns ctx.Err().
func (v *Validator) measureJobs(ctx context.Context, jobs []Job) ([]autodb.Perf, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	out := make([]autodb.Perf, len(jobs))
	var wg sync.WaitGroup
	gate := make(chan struct{}, maxInflight)
	for i, j := range jobs {
		select {
		case gate <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer func() { <-gate; wg.Done() }()
			p, err := v.MeasureTrace(ctx, j.Cfg, j.Name, j.Src)
			if err != nil {
				cancel(err)
			}
			out[i] = p
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// traceName is the canonical cache name of a cluster's i-th trace.
func traceName(cluster string, i int) string { return fmt.Sprintf("%s#%d", cluster, i) }

// Clusters returns the cluster names in sorted-stable order.
func (v *Validator) Clusters() []string {
	out := make([]string, 0, len(v.Workloads))
	for k := range v.Workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NonTargetClusters returns every cluster except the target, sorted.
func (v *Validator) NonTargetClusters(target string) []string {
	out := make([]string, 0, len(v.Workloads))
	for k := range v.Workloads {
		if k != target {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Grader evaluates Formulas 1 and 2.
type Grader struct {
	Alpha float64 // Formula 1 latency/throughput balance
	Beta  float64 // Formula 2 target/non-target penalty balance
	// Ref holds the reference (commodity baseline) measurements per
	// cluster, aligned with the validator's trace lists.
	Ref map[string][]autodb.Perf
}

// NewGrader measures the reference configuration on every cluster, as
// one parallel batch.
func NewGrader(ctx context.Context, v *Validator, refCfg ssdconf.Config, alpha, beta float64) (*Grader, error) {
	g := &Grader{Alpha: alpha, Beta: beta}
	clusters := v.Clusters()
	sp := obs.StartSpan("reference").ArgInt("clusters", int64(len(clusters)))
	defer sp.End()
	out, err := v.MeasureBatch(ctx, []ssdconf.Config{refCfg}, clusters)
	if err != nil {
		return nil, err
	}
	g.Ref = out[0]
	return g, nil
}

// Performance implements Formula 1:
//
//	(1-α)·log(Lat_ref/Lat_target) + α·log(Tput_target/Tput_ref)
//
// Positive values mean the target configuration beats the reference.
func (g *Grader) Performance(target, ref autodb.Perf) float64 {
	lat := math.Log(float64(ref.LatencyNS) / float64(target.LatencyNS))
	tput := math.Log(target.ThroughputBps / ref.ThroughputBps)
	return (1-g.Alpha)*lat + g.Alpha*tput
}

// ClusterPerformance averages Formula 1 over a cluster's traces. The
// values are log-ratios, so this arithmetic mean is exactly the
// geometric mean of the underlying speedups — the paper's "geometric
// mean ... within each cluster".
func (g *Grader) ClusterPerformance(cluster string, perfs []autodb.Perf) float64 {
	refs := g.Ref[cluster]
	var sum float64
	for i, p := range perfs {
		sum += g.Performance(p, refs[i])
	}
	return sum / float64(len(perfs))
}

// Grade implements Formula 2 given the target cluster's performance and
// the per-cluster performance of the non-targets.
func (g *Grader) Grade(targetPerf float64, nonTarget map[string]float64, numClusters int) float64 {
	if numClusters <= 1 {
		return targetPerf
	}
	var sum float64
	for _, p := range nonTarget {
		sum += p
	}
	return (1-g.Beta)*targetPerf + g.Beta*sum/float64(numClusters-1)
}

// TargetHalf returns the target-only share of the grade — the quantity
// the §3.4 validation-pruning shortcut compares against the worst
// retained grade before deciding whether the non-target runs are worth
// their cost.
func (g *Grader) TargetHalf(targetPerf float64) float64 {
	return (1 - g.Beta) * targetPerf
}

// Speedups converts a measurement pair into the latency/throughput
// speedup ratios the paper's tables report.
func Speedups(target, ref autodb.Perf) (latSpeedup, tputSpeedup float64) {
	return float64(ref.LatencyNS) / float64(target.LatencyNS),
		target.ThroughputBps / ref.ThroughputBps
}
