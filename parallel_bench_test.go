// Parallel-validation benchmarks: serial vs worker-pool execution of
// the same simulation workload, on a cold cache each iteration. The
// tuning bench drives the full §3.4 loop; the matrix-sweep bench
// isolates the raw MeasureBatch fan-out. Run with
//
//	go test -bench='SerialVsParallel' -run=^$ .
//
// Speedup scales with GOMAXPROCS (each ssd.Simulator.Run is independent
// and CPU-bound); on a single-core runner the two modes coincide, which
// doubles as a check that the pool adds no measurable overhead.
package autoblox_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"autoblox/internal/core"
	"autoblox/internal/obs"
	"autoblox/internal/obs/httpobs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// benchTraces generates the shared multi-cluster workload set once.
func benchTraces(b *testing.B) map[string]*trace.Trace {
	b.Helper()
	ws := map[string]*trace.Trace{}
	for _, c := range []workload.Category{workload.Database, workload.WebSearch, workload.CloudStorage} {
		ws[string(c)] = workload.MustGenerate(c, workload.Options{Requests: 2000, Seed: 21})
	}
	return ws
}

// coldValidator builds a fresh (empty-cache) validator with the given
// worker bound.
func coldValidator(ws map[string]*trace.Trace, parallel int) (*core.Validator, ssdconf.Config) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	v := core.NewValidator(space, ws)
	v.Parallel = parallel
	return v, space.FromDevice(ssd.Intel750())
}

// parallelModes enumerates the compared worker bounds: serial, the
// machine's GOMAXPROCS, and a fixed 8 for cross-machine comparability.
func parallelModes() []struct {
	name     string
	parallel int
} {
	return []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), 0},
		{"parallel-8", 8},
	}
}

// BenchmarkTuneSerialVsParallel times a full multi-cluster tuning run
// (grader reference batch + BO loop) at each worker bound. Every
// iteration starts from a cold simulation cache so the measured time is
// dominated by simulator execution, the quantity the pool parallelizes.
func BenchmarkTuneSerialVsParallel(b *testing.B) {
	ws := benchTraces(b)
	for _, mode := range parallelModes() {
		b.Run(mode.name, func(b *testing.B) {
			var grade float64
			var sims int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				v, ref := coldValidator(ws, mode.parallel)
				b.StartTimer()
				g, err := core.NewGrader(context.Background(), v, ref, core.DefaultAlpha, core.DefaultBeta)
				if err != nil {
					b.Fatal(err)
				}
				tuner, err := core.NewTuner(v.Space, v, g, core.TunerOptions{
					Seed: 5, MaxIterations: 6, SGDSteps: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := tuner.Tune(context.Background(), string(workload.Database), []ssdconf.Config{ref})
				if err != nil {
					b.Fatal(err)
				}
				grade, sims = res.BestGrade, res.SimRuns
			}
			b.ReportMetric(grade, "best_grade")
			b.ReportMetric(float64(sims), "sims")
		})
	}
}

// BenchmarkTuneObserved repeats the parallel-8 tuning run with the full
// observability control plane live — a metrics registry on the
// validator, a global tracer streaming spans to io.Discard, a flight
// recorder, a TuneStatus fed by the iteration hook, and an introspection
// HTTP server up (idle but listening, as in a real -http run). Comparing
// its ns/op against BenchmarkTuneSerialVsParallel/parallel-8 measures
// the instrumentation overhead; the nil-hook (disabled) path is covered
// by the obs package's zero-allocation benchmarks.
func BenchmarkTuneObserved(b *testing.B) {
	ws := benchTraces(b)
	var grade float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v, ref := coldValidator(ws, 8)
		v.Obs = obs.NewRegistry()
		obs.SetTracer(obs.NewTracer(io.Discard))
		obs.SetFlightRecorder(obs.NewFlightRecorder(1024))
		st := obs.NewTuneStatus()
		st.SetSims(v.Obs.Counter(core.MetricSimRuns))
		st.Begin(string(workload.Database), 6)
		srv, err := httpobs.Start("127.0.0.1:0", httpobs.Options{
			Registry: v.Obs, Tune: st, Flight: obs.Recorder(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		g, err := core.NewGrader(context.Background(), v, ref, core.DefaultAlpha, core.DefaultBeta)
		if err != nil {
			b.Fatal(err)
		}
		tuner, err := core.NewTuner(v.Space, v, g, core.TunerOptions{
			Seed: 5, MaxIterations: 6, SGDSteps: 3,
			OnIteration: st.Update,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := tuner.Tune(context.Background(), string(workload.Database), []ssdconf.Config{ref})
		if err != nil {
			b.Fatal(err)
		}
		grade = res.BestGrade
		b.StopTimer()
		st.Done()
		srv.Close()
		obs.SetTracer(nil)
		obs.SetFlightRecorder(nil)
		b.StartTimer()
	}
	b.ReportMetric(grade, "best_grade")
}

// BenchmarkMatrixSweepSerialVsParallel isolates the batch engine: a
// config×cluster sweep (the runall/matrix building block) fanned through
// MeasureBatch on a cold cache.
func BenchmarkMatrixSweepSerialVsParallel(b *testing.B) {
	ws := benchTraces(b)
	for _, mode := range parallelModes() {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				v, ref := coldValidator(ws, mode.parallel)
				qd, err := v.Space.ParamIndex("QueueDepth")
				if err != nil {
					b.Fatal(err)
				}
				cfgs := make([]ssdconf.Config, 6)
				for k := range cfgs {
					cfg := ref.Clone()
					cfg[qd] = k
					cfgs[k] = cfg
				}
				b.StartTimer()
				if _, err := v.MeasureBatch(context.Background(), cfgs, v.Clusters()); err != nil {
					b.Fatal(err)
				}
				if got, want := v.Stats().SimRuns, int64(len(cfgs)*len(ws)); got != want {
					b.Fatalf("SimRuns = %d, want %d", got, want)
				}
			}
		})
	}
}
