package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"autoblox/internal/ssd"
	"autoblox/internal/workload"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(20)},
		{at(15), at(30)},  // overlaps the previous child: counted once
		{at(90), at(120)}, // straddles the end: clipped to 10ms
		{at(-5), at(5)},   // straddles the start: clipped to 5ms
		{at(40), at(40)},  // empty
		{at(200), at(300)},
	}
	if got, want := covered(parent, children), 35*time.Millisecond; got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
	if got, want := selfTime(parent, children), 65*time.Millisecond; got != want {
		t.Fatalf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("selfTime without children = %v, want the whole span", got)
	}
	nested := []interval{{at(0), at(100)}, {at(20), at(30)}}
	if got := selfTime(parent, nested); got != 0 {
		t.Fatalf("selfTime fully covered = %v, want 0", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0 && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond it", c.n, q)
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 5 {
		t.Errorf("median reordered its input")
	}
	if got := mean(xs); got != 3 {
		t.Errorf("mean = %v", got)
	}
	xs = make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

// TestRepeatCountsFixed pins each workload's repeat count at the
// benchmark's run length: it depends on -seconds alone.
func TestRepeatCountsFixed(t *testing.T) {
	for name, want := range map[string][2]int{
		"tune-database": {7, 3}, "sim-gc": {3, 1}, "pareto-fleet": {4, 2},
	} {
		def := workloads[name]
		if got := [2]int{repeatCount(def, 40, false), repeatCount(def, 40, true)}; got != want {
			t.Errorf("%s: repeats at 40s (untraced, traced) = %v, want %v", name, got, want)
		}
	}
	if got := repeatCount(workloads["pareto-fleet"], 1, true); got != 1 {
		t.Errorf("a short run makes %d repeats, want 1", got)
	}
}

// smallSim runs a short seeded KVStore stream through a small device.
func smallSim(t *testing.T, seed int64) string {
	t.Helper()
	p := simGCParams(ssd.GCGreedy)
	p.BlocksPerPlane = 64
	src, err := workload.NewSource(workload.KVStore, workload.Options{Requests: 3000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ssd.NewSimulator(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := resultDigest([]*ssd.Result{res})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDigestStable(t *testing.T) {
	a, b := smallSim(t, 7), smallSim(t, 7)
	if a != b {
		t.Fatalf("same seed, different digests: %s vs %s", a, b)
	}
	if c := smallSim(t, 8); c == a {
		t.Fatalf("seeds 7 and 8 give the same digest %s", a)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
