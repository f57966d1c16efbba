package core

import (
	"context"
	"math/rand"
	"testing"

	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

// TestRandomSearchBasics runs the search on the local pool and, after
// the reference is graded locally, on a stub remote backend: SimRuns
// must count fresh measurements wherever they executed.
func TestRandomSearchBasics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend Backend
	}{{"local", nil}, {"remote", &stubBackend{}}} {
		t.Run(tc.name, func(t *testing.T) {
			space, v, g, ref := smallTunerEnv(t)
			v.Backend = tc.backend
			start := v.Stats()
			res, err := RandomSearch(context.Background(), space, v, g, string(workload.Database),
				[]ssdconf.Config{ref}, TunerOptions{Seed: 5, MaxIterations: 8})
			if err != nil {
				t.Fatal(err)
			}
			if res.BestGrade < 0 {
				t.Fatalf("random search regressed below the reference: %g", res.BestGrade)
			}
			if res.Iterations != 8 {
				t.Fatalf("iterations = %d", res.Iterations)
			}
			if err := space.CheckConstraints(res.Best); err != nil {
				t.Fatalf("best config violates constraints: %v", err)
			}
			if len(res.BestPerf) != 3 {
				t.Fatalf("BestPerf covers %d clusters", len(res.BestPerf))
			}
			end := v.Stats()
			fresh := int(end.SimRuns + end.RemoteResults - start.SimRuns - start.RemoteResults)
			if fresh == 0 || res.SimRuns != fresh {
				t.Fatalf("SimRuns = %d, want the %d fresh measurements", res.SimRuns, fresh)
			}
		})
	}
}

func TestRandomSearchErrors(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	if _, err := RandomSearch(context.Background(), space, v, g, "nope", []ssdconf.Config{ref}, TunerOptions{}); err == nil {
		t.Fatal("unknown target should fail")
	}
	if _, err := RandomSearch(context.Background(), space, v, g, string(workload.Database), nil, TunerOptions{}); err == nil {
		t.Fatal("no initials should fail")
	}
}

func TestRandomValidConfigRespectsConstraints(t *testing.T) {
	space, _, _, _ := smallTunerEnv(t)
	rng := newTestRNG(3)
	for i := 0; i < 20; i++ {
		cfg := randomValidConfig(space, rng)
		if cfg == nil {
			continue
		}
		if err := space.CheckConstraints(cfg); err != nil {
			t.Fatalf("sample %d violates constraints: %v", i, err)
		}
	}
}

// TestBOBeatsRandomAtEqualBudget is the §3.2 ablation: the GPR-guided
// search should not lose to uniform random sampling given the same
// validation budget (statistically it wins clearly; with the shared
// validation cache this small check just guards against regressions
// where the BO loop becomes worse than blind sampling).
func TestBOBeatsRandomAtEqualBudget(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	opts := TunerOptions{Seed: 11, MaxIterations: 10, SGDSteps: 4}
	tuner, err := NewTuner(space, v, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := tuner.Tune(context.Background(), string(workload.CloudStorage), []ssdconf.Config{ref})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RandomSearch(context.Background(), space, v, g, string(workload.CloudStorage), []ssdconf.Config{ref}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bo.BestGrade < rnd.BestGrade-0.25 {
		t.Fatalf("BO grade %g clearly lost to random %g", bo.BestGrade, rnd.BestGrade)
	}
}

// newTestRNG gives tests a seeded *rand.Rand without importing math/rand
// at every call site.
func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
