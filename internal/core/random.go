package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"autoblox/internal/ssdconf"
)

// RandomSearch is the black-box baseline the paper's BO formulation is
// motivated against (§3.2): it spends the same validation budget on
// uniformly sampled constraint-respecting configurations, with no
// surrogate model and no neighborhood structure. The ablation benchmark
// compares its best grade against the BO tuner's at equal budget.
func RandomSearch(ctx context.Context, space *ssdconf.Space, v *Validator, g *Grader, target string, initial []ssdconf.Config, opts TunerOptions) (*TuneResult, error) {
	opts.defaults()
	if _, ok := v.Workloads[target]; !ok {
		return nil, errors.New("core: unknown target workload " + target)
	}
	if len(initial) == 0 {
		return nil, errors.New("core: no initial configurations")
	}
	start := time.Now()
	simStart := freshMeasurements(v)
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x9e3779b9))

	// Reuse the tuner's evaluation path (grading, power budget,
	// validation pruning) so only the *search policy* differs.
	t := &Tuner{Space: space, Validator: v, Grader: g, Opts: opts,
		rng: rand.New(rand.NewSource(opts.Seed))}

	res := &TuneResult{Target: target}
	var validated []entry
	for _, cfg := range initial {
		if space.CheckConstraints(cfg) != nil {
			continue
		}
		e, rejected, err := t.evaluate(ctx, target, cfg, math.Inf(-1), res)
		if err != nil {
			return nil, err
		}
		if !rejected {
			validated = append(validated, e)
		}
	}
	if len(validated) == 0 {
		return nil, errors.New("core: no initial configuration satisfies the constraints")
	}

	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.Iterations++
		cfg := randomValidConfig(space, rng)
		if cfg == nil {
			continue
		}
		worst := worstRetainedGrade(validated, opts.TopK)
		e, rejected, err := t.evaluate(ctx, target, cfg, worst, res)
		if err != nil {
			return nil, err
		}
		if !rejected {
			validated = append(validated, e)
		}
		res.Trajectory = append(res.Trajectory, bestGrade(validated))
	}

	best := bestEntry(validated)
	res.Best = best.cfg
	res.BestGrade = best.grade
	out, err := v.MeasureBatch(ctx, []ssdconf.Config{best.cfg}, v.Clusters())
	if err != nil {
		return nil, err
	}
	res.BestPerf = out[0]
	if !space.Objectives.Scalar() {
		res.Front, res.Hypervolume = buildFront(space.Objectives, validated)
	}
	res.SimRuns = freshMeasurements(v) - simStart
	res.Elapsed = time.Since(start)
	return res, nil
}

// randomValidConfig samples uniform grid indices and repairs capacity;
// nil when the sample cannot be made valid.
func randomValidConfig(space *ssdconf.Space, rng *rand.Rand) ssdconf.Config {
	for attempt := 0; attempt < 16; attempt++ {
		cfg := make(ssdconf.Config, len(space.Params))
		for i, p := range space.Params {
			if !p.Tunable {
				continue // filled below by constraint application
			}
			cfg[i] = rng.Intn(len(p.Values))
		}
		// Constrained parameters follow the constraint set.
		if i, err := space.ParamIndex("Interface"); err == nil {
			cfg[i] = int(space.Cons.Interface)
		}
		if i, err := space.ParamIndex("FlashType"); err == nil {
			cfg[i] = int(space.Cons.Flash)
		}
		if !space.RepairCapacity(cfg) {
			continue
		}
		if space.CheckConstraints(cfg) == nil {
			return cfg
		}
	}
	return nil
}
