// Command perfbench is AutoBlox's end-to-end and per-layer benchmark.
//
//	perfbench -workload tune-database|sim-gc|pareto-fleet -seed N -seconds S -trace 0|1
//
// Each run repeats one workload as a single closed-loop client a fixed
// number of times, building a fresh world for every repeat, and prints
// one JSON object as its last line. With -trace 0 it reports
// the end-to-end metrics; with -trace 1 it alternates untraced and
// traced repeats and reports the per-layer metrics. Every repeat's
// output is checked; see README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// workloadRunner is one benchmark workload.
type workloadRunner interface {
	// run builds a fresh world for env.seed, runs the workload's body
	// once (timed as wall) and checks its output. The repeat carries its
	// own set-up samples.
	run(env *runEnv, traced bool) (*repeat, error)
}

// setupSampler is a workload whose world can be built and discarded
// without running the body; each repeat adds extraSetups such samples.
type setupSampler interface {
	setupOnly(env *runEnv) (time.Duration, error)
}

type workloadDef struct {
	runner workloadRunner
	// repeats is how many repeats an untraced run of 40 seconds makes.
	// The count scales with -seconds alone, so it, and with it the set
	// of inputs, never depends on how fast the code under test runs.
	// One repeat takes about 5.5 s (tune-database), 10.5 s (sim-gc) and
	// 8 to 16 s (pareto-fleet) on a 2-vCPU host; pareto-fleet gets a
	// fourth input, and so overruns 40 s, because its inputs differ
	// most in cost.
	repeats int
	// gen lists the generator streams the workload consumes, drained
	// once per traced run to price the workload layer.
	gen         []workload.Category
	genRequests int
}

var workloads = map[string]workloadDef{
	"tune-database": {tuneWorkload{}, 7, workload.Studied(), tuneRequests},
	"sim-gc":        {simGCWorkload{}, 3, []workload.Category{workload.KVStore}, simGCRequests},
	"pareto-fleet":  {tuneWorkload{pareto: true}, 4, workload.Studied(), tuneRequests},
}

// repeatCount is how many repeats a run of the given length makes, at
// least one. A traced run times every repeat twice (untraced, then
// traced), so it makes half as many.
func repeatCount(def workloadDef, seconds int, traced bool) int {
	per40 := def.repeats * seconds
	if traced {
		per40 /= 2
	}
	return max(1, per40/40)
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"sims", "count"}, {"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload never
// reaches reports 0 (e.g. dist.* outside pareto-fleet).
var perLayer = []metricDef{
	{"clusterer.train_s", "s"},
	{"grader.reference_s", "s"}, {"grader.reference_sims", "count"}, {"grader.reference_self_s", "s"},
	{"prune.fine_s", "s"}, {"prune.fine_sims", "count"}, {"prune.fine_self_s", "s"},
	{"tuner.tune_s", "s"}, {"tuner.tune_sims", "count"}, {"tuner.tune_self_s", "s"},
	{"tuner.iterations", "count"}, {"tuner.best_grade", "grade"},
	{"tuner.front_size", "count"}, {"tuner.front_hypervolume", "hv"},
	{"validator.calls", "count"}, {"validator.cache_hits", "count"}, {"validator.coalesced", "count"},
	{"validator.hit_ratio", "ratio"}, {"validator.queue_wait_s", "s"}, {"validator.sim_busy_s", "s"},
	{"validator.utilization", "ratio"},
	{"validator.sim_ms.p50", "ms"}, {"validator.sim_ms.tail", "ms"},
	{"validator.sim_ms.tail_pct", "pct"}, {"validator.sim_ms.count", "count"},
	{"dist.leases_granted", "count"}, {"dist.leases_expired", "count"},
	{"dist.leases_reassigned", "count"}, {"dist.duplicate_results", "count"},
	{"dist.queue_wait_s", "s"}, {"dist.sim_busy_s", "s"}, {"dist.overhead_s", "s"},
	{"dist.measure_ms.p50", "ms"}, {"dist.measure_ms.tail", "ms"}, {"dist.measure_ms.tail_pct", "pct"},
	{"dist.measure_ms.count", "count"}, {"dist.worker_utilization", "ratio"},
	{"ssd.sims_timed", "count"}, {"ssd.setup_s", "s"}, {"ssd.warmup_s", "s"}, {"ssd.replay_s", "s"},
	{"ssd.setup_share", "ratio"}, {"ssd.setup_ms.p50", "ms"}, {"ssd.replay_ns_per_req", "ns"},
	{"ssd.replay_ns_per_req.greedy", "ns"}, {"ssd.replay_ns_per_req.fifo", "ns"},
	{"ssd.replay_ns_per_req.costbenefit", "ns"},
	{"ssd.gc_runs", "count"}, {"ssd.gc_programs", "count"}, {"ssd.erases", "count"},
	{"ssd.write_amp", "ratio"}, {"ssd.cmt_miss_ratio", "ratio"}, {"ssd.cache_hit_ratio", "ratio"},
	{"workload.gen_ns_per_req", "ns"},
	{"autodb.write_ms", "ms"},
	{"trace.features_ns_per_req", "ns"},
	{"tracing.wall_s", "s"}, {"tracing.untraced_wall_s", "s"}, {"tracing.overhead_s", "s"},
}

// extraSetups is how many extra worlds a run builds and discards before
// each repeat of a setupSampler workload, so setup_s, the median over
// these and every repeat's own set-up, has enough samples.
const extraSetups = 20

type runEnv struct {
	ctx    context.Context
	seed   int64  // the current repeat's generator seed
	tmp    string // scratch directory for temp AutoDBs
	tracer *tracer
}

// repeat is one timed execution of a workload's body.
type repeat struct {
	setups   []float64 // set-up samples, s
	wall     time.Duration
	sims     int64
	rssMB    []float64 // peak resident set of each timed body
	digest   string    // of the checked outputs
	summary  string
	layers   map[string]float64 // traced repeats only
	failures []string
}

func (r *repeat) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tune-database, sim-gc or pareto-fleet")
	seed := flag.Int64("seed", 42, "workload seed: drives every trace generator")
	seconds := flag.Int("seconds", 40, "run length: sizes the fixed repeat count")
	traceFlag := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	expectPath := flag.String("expect", "", "JSON file of recorded output digests")
	record := flag.Bool("record", false, "record this run's digest into -expect instead of checking it")
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	rep, err := runWorkload(*name, def, *seed, repeatCount(def, *seconds, *traceFlag == 1), *traceFlag == 1, *expectPath, *record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-36s %16.6f %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// subSeedStride separates the generator seeds of a run's repeats: repeat
// i runs on seed + i*subSeedStride, so repeat 0 is exactly the CLI's
// `-seed N` run and the runs of nearby seeds share no input.
const subSeedStride = 1_000_003

func subSeed(seed int64, i int) int64 { return seed + int64(i)*subSeedStride }

func runWorkload(name string, def workloadDef, seed int64, repeats int, traced bool, expectPath string, record bool) (*report, error) {
	tmp := filepath.Join(".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	env := &runEnv{ctx: context.Background(), tmp: tmp, tracer: &tracer{}}
	exp, err := loadExpect(expectPath, record)
	if err != nil {
		return nil, err
	}

	out := &report{Correct: true, Metrics: map[string]metricOut{}}
	failRun := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
		out.Correct = false
	}
	// Each repeat runs on its own sub-seed, untraced, then (with -trace 1)
	// traced on the same inputs.
	var plain, tracedReps []*repeat
	var setups, overheads []float64
	var runErr error
	for i := 0; i < repeats && runErr == nil; i++ {
		env.seed = subSeed(seed, i)
		if s, ok := def.runner.(setupSampler); ok {
			for n := 0; n < extraSetups; n++ {
				d, err := s.setupOnly(env)
				if err != nil {
					return nil, fmt.Errorf("set-up: %w", err)
				}
				setups = append(setups, d.Seconds())
			}
		}
		var pair []*repeat
		for _, tr := range []bool{false, true} {
			if tr && !traced {
				continue
			}
			r, err := def.runner.run(env, tr)
			if err != nil {
				runErr = fmt.Errorf("seed %d: %w", env.seed, err)
				break
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced=%v: set-up %.6fs, wall %.3fs, %d sims, %.0f MB, digest %s; %s\n",
				name, env.seed, tr, median(r.setups), r.wall.Seconds(), r.sims, median(r.rssMB), r.digest, r.summary)
			if want, ok := exp[name][strconv.FormatInt(env.seed, 10)]; ok && !record && r.digest != want {
				r.fail("digest %s, recorded expectation %s", r.digest, want)
			}
			pair = append(pair, r)
		}
		if runErr != nil {
			break
		}
		if traced {
			// Traced ≡ untraced: the layer-by-layer pipeline must reach the
			// Framework's result on the same inputs.
			if u, t := pair[0], pair[1]; t.digest != u.digest {
				t.fail("traced digest %s != untraced %s (%s vs %s)", t.digest, u.digest, t.summary, u.summary)
			}
		}
		for _, r := range pair {
			out.Attempted += r.sims
			if len(r.failures) > 0 {
				out.Failed += r.sims
				for _, f := range r.failures {
					failRun("seed %d: %s", env.seed, f)
				}
			}
		}
		plain = append(plain, pair[0])
		setups = append(setups, pair[0].setups...)
		if record {
			if exp[name] == nil {
				exp[name] = map[string]string{}
			}
			exp[name][strconv.FormatInt(env.seed, 10)] = pair[0].digest
		}
		if traced {
			tracedReps = append(tracedReps, pair[1])
			overheads = append(overheads, (pair[1].wall - pair[0].wall).Seconds())
		}
	}
	if runErr != nil {
		failRun("repeat failed: %v", runErr)
		out.Attempted++
		out.Failed++
	}
	if len(plain) == 0 || (traced && len(tracedReps) == 0) {
		return nil, fmt.Errorf("no repeat completed: %w", runErr)
	}
	if runErr == nil && len(plain) != repeats {
		return nil, fmt.Errorf("%d of %d repeats completed", len(plain), repeats)
	}
	if record {
		if err := saveExpect(expectPath, exp); err != nil {
			return nil, err
		}
	}
	col := func(rs []*repeat, f func(*repeat) float64) []float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return xs
	}
	if !traced {
		// Peak RSS is bimodal: where Go's GC lands during a sim's set-up
		// burst moves a body's peak by a fifth or more. A median would
		// flip between the modes from run to run, so the mean over every
		// body's peak is reported instead.
		var rss []float64
		for _, r := range plain {
			rss = append(rss, r.rssMB...)
		}
		vals := map[string]float64{
			"wall_s":      median(col(plain, func(r *repeat) float64 { return r.wall.Seconds() })),
			"setup_s":     median(setups),
			"sims":        median(col(plain, func(r *repeat) float64 { return float64(r.sims) })),
			"peak_rss_mb": mean(rss),
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricOut{vals[m.name], m.unit}
		}
		return out, nil
	}

	genNS, featNS, err := streamCosts(def, seed)
	if err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		v := median(col(tracedReps, func(r *repeat) float64 { return r.layers[m.name] }))
		out.Metrics[m.name] = metricOut{v, m.unit}
	}
	set := func(n string, v float64) { out.Metrics[n] = metricOut{v, out.Metrics[n].Unit} }
	set("workload.gen_ns_per_req", genNS)
	set("trace.features_ns_per_req", featNS)
	set("tracing.wall_s", median(col(tracedReps, func(r *repeat) float64 { return r.wall.Seconds() })))
	set("tracing.untraced_wall_s", median(col(plain, func(r *repeat) float64 { return r.wall.Seconds() })))
	set("tracing.overhead_s", median(overheads))
	spans := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(spans, 0o755); err != nil {
		return nil, err
	}
	if err := env.tracer.write(filepath.Join(spans, fmt.Sprintf("%s-seed%d.json", name, seed))); err != nil {
		return nil, err
	}
	return out, nil
}

// streamCosts prices the two stream layers once per traced run: a plain
// drain of each of the workload's generator streams, then a windowed
// feature pass over a fresh copy (generation included). Both are per
// generated request.
func streamCosts(def workloadDef, seed int64) (genNS, featNS float64, err error) {
	var gen, feat time.Duration
	var n int64
	for _, cat := range def.gen {
		opt := workload.Options{Requests: def.genRequests, Seed: seed}
		src, err := workload.NewSource(cat, opt)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		gen += time.Since(t0)
		if err := src.Err(); err != nil {
			return 0, 0, err
		}
		if src, err = workload.NewSource(cat, opt); err != nil {
			return 0, 0, err
		}
		t0 = time.Now()
		if _, err := trace.FeatureMatrixSource(src, trace.DefaultWindowSize); err != nil {
			return 0, 0, err
		}
		feat += time.Since(t0)
	}
	return float64(gen.Nanoseconds()) / float64(n), float64(feat.Nanoseconds()) / float64(n), nil
}

// expectations maps workload → seed → recorded output digest.
type expectations map[string]map[string]string

// loadExpect reads the recorded digests. A missing file is an error,
// since it would silently turn every digest check off; only a -record
// run may start one from scratch.
func loadExpect(path string, record bool) (expectations, error) {
	exp := expectations{}
	if path == "" {
		return nil, errors.New("no -expect file of recorded digests given")
	}
	b, err := os.ReadFile(path)
	if record && errors.Is(err, os.ErrNotExist) {
		return exp, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &exp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return exp, nil
}

func saveExpect(path string, exp expectations) error {
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// prepareRSS collects garbage, returns freed memory to the OS and resets
// the kernel's peak-RSS mark, so peakRSSMB reads the next body's peak.
func prepareRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Without the reset (kernels before 4.0), VmHWM is the process-wide
	// peak: still an upper bound on the body's.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
