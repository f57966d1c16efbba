// Ablation benchmarks for the design choices DESIGN.md calls out: the
// §3.4 validation-pruning shortcut, the GPR-guided search vs a blind
// random-search baseline, the layout-diverse initialization, and the raw
// simulator throughput that makes in-loop validation affordable.
package autoblox_test

import (
	"context"
	"testing"

	"autoblox"

	"autoblox/internal/core"
	"autoblox/internal/experiments"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// ablationEnv builds a small, *fresh* (non-memoized) environment so
// simulator-invocation counts are comparable across variants.
func ablationEnv(b *testing.B) (*ssdconf.Space, *core.Validator, *core.Grader, ssdconf.Config) {
	b.Helper()
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	traces := map[string]*trace.Trace{}
	for _, cat := range []workload.Category{workload.Database, workload.WebSearch, workload.CloudStorage} {
		traces[string(cat)] = workload.MustGenerate(cat, workload.Options{Requests: 4000, Seed: 42})
	}
	v := core.NewValidator(space, traces)
	ref := space.FromDevice(ssd.Intel750())
	g, err := core.NewGrader(context.Background(), v, ref, core.DefaultAlpha, core.DefaultBeta)
	if err != nil {
		b.Fatal(err)
	}
	return space, v, g, ref
}

// BenchmarkAblationValidationPruning measures how many simulator runs
// the §3.4 shortcut (skip non-target validation for clearly-losing
// candidates) saves at an identical iteration budget.
func BenchmarkAblationValidationPruning(b *testing.B) {
	var withSims, withoutSims int
	for i := 0; i < b.N; i++ {
		run := func(disable bool) int {
			space, v, g, ref := ablationEnv(b)
			tuner, err := core.NewTuner(space, v, g, core.TunerOptions{
				Seed: 7, MaxIterations: 10, SGDSteps: 4, DisableValidationPruning: disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := tuner.Tune(context.Background(), string(workload.Database), []ssdconf.Config{ref})
			if err != nil {
				b.Fatal(err)
			}
			return res.SimRuns
		}
		withSims = run(false)
		withoutSims = run(true)
	}
	b.ReportMetric(float64(withSims), "sims_with_pruning")
	b.ReportMetric(float64(withoutSims), "sims_without_pruning")
}

// BenchmarkAblationRandomSearch compares the BO tuner against uniform
// random search at the same iteration budget (the §3.2 argument for a
// customized BO model).
func BenchmarkAblationRandomSearch(b *testing.B) {
	var boGrade, rndGrade float64
	for i := 0; i < b.N; i++ {
		space, v, g, ref := ablationEnv(b)
		opts := core.TunerOptions{Seed: 13, MaxIterations: 12, SGDSteps: 4}
		tuner, err := core.NewTuner(space, v, g, opts)
		if err != nil {
			b.Fatal(err)
		}
		bo, err := tuner.Tune(context.Background(), string(workload.CloudStorage), []ssdconf.Config{ref})
		if err != nil {
			b.Fatal(err)
		}
		rnd, err := core.RandomSearch(context.Background(), space, v, g, string(workload.CloudStorage), []ssdconf.Config{ref}, opts)
		if err != nil {
			b.Fatal(err)
		}
		boGrade, rndGrade = bo.BestGrade, rnd.BestGrade
	}
	b.ReportMetric(boGrade, "bo_grade")
	b.ReportMetric(rndGrade, "random_grade")
}

// BenchmarkAblationTuningOrder isolates the §3.3 learning-rule effect at
// a small budget: tuning with the ridge-derived order vs without.
func BenchmarkAblationTuningOrder(b *testing.B) {
	var withG, withoutG float64
	for i := 0; i < b.N; i++ {
		space, v, g, ref := ablationEnv(b)
		fine, err := core.FinePrune(context.Background(), v, g, string(workload.Database), ref, nil,
			core.PruneOptions{Seed: 3, Samples: 24})
		if err != nil {
			b.Fatal(err)
		}
		run := func(order []string) float64 {
			opts := core.TunerOptions{Seed: 3, MaxIterations: 10, SGDSteps: 4}
			if order != nil {
				opts.UseTuningOrder = true
				opts.Order = order
			}
			tuner, err := core.NewTuner(space, v, g, opts)
			if err != nil {
				b.Fatal(err)
			}
			res, err := tuner.Tune(context.Background(), string(workload.Database), []ssdconf.Config{ref})
			if err != nil {
				b.Fatal(err)
			}
			return res.BestGrade
		}
		withG = run(fine.Order)
		withoutG = run(nil)
	}
	b.ReportMetric(withG, "ordered_grade")
	b.ReportMetric(withoutG, "unordered_grade")
}

// BenchmarkSimulatorThroughput measures the raw discrete-event simulator
// speed — the quantity that makes in-loop efficiency validation
// affordable (Table 6's dominant term).
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 20000, Seed: 1})
	sim, err := ssd.NewSimulator(ssd.Intel750())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(20000*b.N)/b.Elapsed().Seconds(), "trace_requests/s")
}

// BenchmarkRecommendCached measures the AutoDB fast path: a cached
// recommendation must be orders of magnitude cheaper than learning.
func BenchmarkRecommendCached(b *testing.B) {
	_ = experiments.DefaultScale() // keep the experiments import honest
	dir := b.TempDir()
	fw, err := newBenchFramework(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer fw.Close()
	probe := workload.MustGenerate(workload.Database, workload.Options{Requests: 6000, Seed: 9})
	if _, err := fw.RecommendContext(context.Background(), probe); err != nil { // first: learns
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := fw.RecommendContext(context.Background(), probe)
		if err != nil {
			b.Fatal(err)
		}
		if !rec.FromCache {
			b.Fatal("expected cached recommendation")
		}
	}
}

// newBenchFramework builds a small framework with three learned clusters
// for the cached-recommendation benchmark.
func newBenchFramework(dir string) (*autoblox.Framework, error) {
	fw, err := autoblox.New(autoblox.DefaultConstraints(), autoblox.Options{
		DBPath: dir + "/bench.db", Seed: 42,
		Tuner: autoblox.TunerOptions{MaxIterations: 6, SGDSteps: 3},
	})
	if err != nil {
		return nil, err
	}
	var traces []*autoblox.Trace
	for _, cat := range []workload.Category{workload.Database, workload.WebSearch, workload.CloudStorage} {
		traces = append(traces, workload.MustGenerate(cat, workload.Options{Requests: 6000, Seed: 42}))
	}
	if err := fw.LearnWorkloads(traces); err != nil {
		fw.Close()
		return nil, err
	}
	return fw, nil
}
