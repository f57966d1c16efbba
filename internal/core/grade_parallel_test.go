package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// TestCacheKeyRegression guards the struct-key fix: the former string
// key cfg.Key()+"|"+name could not tell ("a", "b|c") from ("a|b", "c").
func TestCacheKeyRegression(t *testing.T) {
	if cacheKey("a", "b|c") == cacheKey("a|b", "c") {
		t.Fatal("cache key collides across the config/name boundary")
	}
	if cacheKey("a", "b") != cacheKey("a", "b") {
		t.Fatal("identical inputs must produce identical keys")
	}
}

// TestCacheKeyPipeClusterNames is the behavioral half of the regression:
// a validator whose cluster names contain the old separator must still
// treat distinct (config, trace) pairs as distinct simulations.
func TestCacheKeyPipeClusterNames(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 1500, Seed: 3})
	v := NewValidator(space, map[string]*trace.Trace{"a|b": tr, "a": tr})
	ref := space.FromDevice(ssd.Intel750())
	if _, err := v.MeasureTrace(context.Background(), ref, "a|b#0", tr.Factory()); err != nil {
		t.Fatal(err)
	}
	if _, err := v.MeasureTrace(context.Background(), ref, "a#0", tr.Factory()); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats().SimRuns; got != 2 {
		t.Fatalf("SimRuns = %d, want 2 distinct simulations", got)
	}
}

// distinctConfigs derives n configurations with distinct cache keys by
// walking one numeric parameter's grid.
func distinctConfigs(t *testing.T, space *ssdconf.Space, ref ssdconf.Config, n int) []ssdconf.Config {
	t.Helper()
	i, err := space.ParamIndex("QueueDepth")
	if err != nil {
		t.Fatal(err)
	}
	vals := len(space.Params[i].Values)
	if n > vals {
		t.Fatalf("need %d values on QueueDepth, grid has %d", n, vals)
	}
	out := make([]ssdconf.Config, n)
	for k := 0; k < n; k++ {
		cfg := ref.Clone()
		cfg[i] = k
		out[k] = cfg
	}
	return out
}

// TestMeasureBatchMatchesSerial: the parallel batch path must return
// measurements identical to the serial MeasureTrace path, one map per
// configuration and one result per trace.
func TestMeasureBatchMatchesSerial(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	ws := map[string]*trace.Trace{
		"Database":  workload.MustGenerate(workload.Database, workload.Options{Requests: 1500, Seed: 5}),
		"WebSearch": workload.MustGenerate(workload.WebSearch, workload.Options{Requests: 1500, Seed: 5}),
	}
	ref := space.FromDevice(ssd.Intel750())
	cfgs := distinctConfigs(t, space, ref, 3)

	serial := NewValidator(space, ws)
	serial.Parallel = 1
	par := NewValidator(space, ws)
	par.Parallel = 8

	out, err := par.MeasureBatch(context.Background(), cfgs, par.Clusters())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(cfgs) {
		t.Fatalf("MeasureBatch returned %d maps, want one per config (%d)", len(out), len(cfgs))
	}
	for i, cfg := range cfgs {
		if len(out[i]) != len(ws) {
			t.Fatalf("config %d: %d clusters returned, want %d", i, len(out[i]), len(ws))
		}
		for _, cl := range serial.Clusters() {
			factories := serial.Workloads[cl]
			if len(out[i][cl]) != len(factories) {
				t.Fatalf("config %d/%s: %d results, want one per trace (%d)", i, cl, len(out[i][cl]), len(factories))
			}
			for k, f := range factories {
				name := traceName(cl, k)
				a, err := serial.MeasureTrace(context.Background(), cfg, name, f)
				if err != nil {
					t.Fatal(err)
				}
				if b := out[i][cl][k]; a != b {
					t.Fatalf("parallel result differs for %s/%s:\n serial   %+v\n parallel %+v",
						cfg.Key(), name, a, b)
				}
			}
		}
	}
	want := int64(len(cfgs) * len(ws))
	if got := par.Stats().SimRuns; got != want {
		t.Fatalf("parallel SimRuns = %d, want %d", got, want)
	}
	if got := par.Stats().CacheHits; got != 0 {
		t.Fatalf("parallel CacheHits = %d, want 0 (every key was cold)", got)
	}
}

// TestMeasureBatchCountsOnce: a batch returns what it measured, so no
// caller reads its own results back through the cache. NewGrader's
// reference pass costs one sim per cluster and no hits, and a FinePrune
// adds one sim per sample and exactly one hit — its base lookup, which
// the reference pass already measured.
func TestMeasureBatchCountsOnce(t *testing.T) {
	_, v, g, ref := smallTunerEnv(t)
	st := v.Stats()
	if st.SimRuns != 3 || st.CacheHits != 0 {
		t.Fatalf("after NewGrader: SimRuns %d CacheHits %d, want 3 and 0", st.SimRuns, st.CacheHits)
	}
	const samples = 16
	if _, err := FinePrune(context.Background(), v, g, string(workload.Database), ref, nil, PruneOptions{Samples: samples}); err != nil {
		t.Fatal(err)
	}
	st = v.Stats()
	if st.SimRuns != 3+samples || st.CacheHits != 1 {
		t.Fatalf("after FinePrune: SimRuns %d CacheHits %d, want %d and 1", st.SimRuns, st.CacheHits, 3+samples)
	}
}

// TestSingleflightStress hammers the validator from 64 goroutines with
// heavily overlapping keys. Exactly one simulation per distinct key may
// run: SimRuns must equal the number of distinct (config, trace) pairs.
func TestSingleflightStress(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	ws := map[string]*trace.Trace{
		"Database": workload.MustGenerate(workload.Database, workload.Options{Requests: 1500, Seed: 7}),
		"KVStore":  workload.MustGenerate(workload.KVStore, workload.Options{Requests: 1500, Seed: 7}),
	}
	v := NewValidator(space, ws)
	v.Parallel = 8
	ref := space.FromDevice(ssd.Intel750())
	cfgs := distinctConfigs(t, space, ref, 4)
	clusters := v.Clusters()

	const goroutines = 64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Half the goroutines batch everything at once...
				if _, err := v.MeasureBatch(context.Background(), cfgs, clusters); err != nil {
					errs <- err
				}
				return
			}
			// ...the rest issue single lookups in rotating order.
			for k := 0; k < len(cfgs)*len(clusters); k++ {
				cfg := cfgs[(g+k)%len(cfgs)]
				cl := clusters[(g+k)%len(clusters)]
				if _, err := v.MeasureTrace(context.Background(), cfg, cl+"#0", ws[cl].Factory()); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	distinct := len(cfgs) * len(clusters)
	if got := v.Stats().SimRuns; got != int64(distinct) {
		t.Fatalf("SimRuns = %d, want %d (duplicate simulation slipped past singleflight)", got, distinct)
	}

	// Dedup accounting: every MeasureTrace call resolves as exactly one of
	// {fresh simulation, cache hit, coalesced wait}. The batching half
	// issues 8 lookups per MeasureBatch, the lookup half 8 each.
	st := v.Stats()
	totalCalls := int64(goroutines * len(cfgs) * len(clusters))
	if st.SimRuns != int64(distinct) {
		t.Fatalf("Stats().SimRuns = %d, want %d", st.SimRuns, distinct)
	}
	if got := st.SimRuns + st.CacheHits + st.CoalescedWaits; got != totalCalls {
		t.Fatalf("fresh(%d) + cacheHits(%d) + coalesced(%d) = %d, want %d total MeasureTrace calls",
			st.SimRuns, st.CacheHits, st.CoalescedWaits, got, totalCalls)
	}
	if st.Backend.SimBusy <= 0 {
		t.Fatalf("Stats() timing not recorded: Backend.SimBusy=%v", st.Backend.SimBusy)
	}
}

// parallelTunerEnv is testEnv with an explicit worker bound, applied
// before the grader's reference batch so every simulation goes through
// the configured pool.
func parallelTunerEnv(t *testing.T, parallel int, reg *obs.Registry) (*ssdconf.Space, *Validator, *Grader, ssdconf.Config) {
	t.Helper()
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	ws := map[string]*trace.Trace{}
	for _, c := range []workload.Category{workload.Database, workload.WebSearch, workload.CloudStorage} {
		ws[string(c)] = workload.MustGenerate(c, workload.Options{Requests: 2000, Seed: 21})
	}
	v := NewValidator(space, ws)
	v.Parallel = parallel
	v.Obs = reg
	ref := space.FromDevice(ssd.Intel750())
	g, err := NewGrader(context.Background(), v, ref, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	return space, v, g, ref
}

// TestTuneSerialParallelEquivalence is the acceptance-criteria test:
// Tune at -parallel 1 and -parallel 8 with the same seed must return the
// identical best configuration, grade, trajectory and simulation count —
// and so must a fully instrumented run (metrics registry + active
// tracer), proving observability never perturbs results.
func TestTuneSerialParallelEquivalence(t *testing.T) {
	run := func(parallel int, reg *obs.Registry) *TuneResult {
		space, v, g, ref := parallelTunerEnv(t, parallel, reg)
		tuner, err := NewTuner(space, v, g, TunerOptions{Seed: 5, MaxIterations: 6, SGDSteps: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tuner.Tune(context.Background(), string(workload.Database), []ssdconf.Config{ref})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1, nil)
	parallel := run(8, nil)

	// Third run: parallel AND observed — metrics registry attached and a
	// live global tracer capturing spans. Must be bit-for-bit identical
	// to the uninstrumented serial run.
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	obs.SetTracer(obs.NewTracer(&traceBuf))
	observed := run(8, reg)
	obs.SetTracer(nil)

	check := func(label string, got *TuneResult) {
		t.Helper()
		if !ssdconf.Equal(serial.Best, got.Best) {
			t.Fatalf("best configs differ:\n serial %s\n %s %s",
				serial.Best.Key(), label, got.Best.Key())
		}
		if serial.BestGrade != got.BestGrade {
			t.Fatalf("best grades differ: serial %v, %s %v", serial.BestGrade, label, got.BestGrade)
		}
		if serial.Iterations != got.Iterations {
			t.Fatalf("iteration counts differ: serial %d, %s %d", serial.Iterations, label, got.Iterations)
		}
		if len(serial.Trajectory) != len(got.Trajectory) {
			t.Fatalf("trajectory lengths differ: %d vs %s %d", len(serial.Trajectory), label, len(got.Trajectory))
		}
		for i := range serial.Trajectory {
			if serial.Trajectory[i] != got.Trajectory[i] {
				t.Fatalf("trajectories diverge at %d: %v vs %s %v",
					i, serial.Trajectory[i], label, got.Trajectory[i])
			}
		}
		if serial.SimRuns != got.SimRuns {
			t.Fatalf("simulation counts differ: serial %d, %s %d (a duplicate or skipped sim)",
				serial.SimRuns, label, got.SimRuns)
		}
	}
	check("parallel", parallel)
	check("observed", observed)

	// The instrumented run must actually have produced telemetry.
	if got := reg.Counter(MetricSimRuns).Value(); got == 0 {
		t.Fatal("instrumented run recorded no simulations in the registry")
	}
	if reg.Histogram(MetricSimTime).Count() == 0 {
		t.Fatal("instrumented run recorded no sim-time samples")
	}
	if !bytes.Contains(traceBuf.Bytes(), []byte(`"name":"tune"`)) ||
		!bytes.Contains(traceBuf.Bytes(), []byte(`"name":"iteration"`)) {
		t.Fatalf("trace output missing tune/iteration spans:\n%.500s", traceBuf.String())
	}
}
