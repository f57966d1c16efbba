package dist

import (
	"context"
	"fmt"
	"testing"
	"time"

	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

// BenchmarkDistributedScaling measures one cold validation frontier
// (6 configs × 2 clusters) through loopback fleets of 1, 2 and 4
// workers. Each iteration builds a fresh fleet and validator so every
// simulation is a cache miss; the interesting number is wall time per
// frontier as workers scale.
func BenchmarkDistributedScaling(b *testing.B) {
	specs := map[string][]WorkloadSpec{}
	for _, c := range []workload.Category{workload.Database, workload.WebSearch} {
		specs[string(c)] = []WorkloadSpec{{Category: string(c), Requests: 1200, Seed: 21}}
	}
	env, err := NewEnv(ssdconf.DefaultConstraints(), false, ssd.FaultProfile{}, specs)
	if err != nil {
		b.Fatal(err)
	}
	space := env.Space()
	qd, err := space.ParamIndex("QueueDepth")
	if err != nil {
		b.Fatal(err)
	}
	ref := space.FromDevice(ssd.Intel750())
	cfgs := make([]ssdconf.Config, 6)
	for i := range cfgs {
		cfg := ref.Clone()
		cfg[qd] = i % len(space.Params[qd].Values)
		cfgs[i] = cfg
	}

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fleet, err := StartFleet(env, FleetOptions{
					Workers:        workers,
					WorkerParallel: 2,
					PollInterval:   10 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				v, err := NewValidator(env)
				if err != nil {
					b.Fatal(err)
				}
				v.Backend = fleet.Backend()
				if _, err := v.MeasureBatch(context.Background(), cfgs, v.Clusters()); err != nil {
					b.Fatal(err)
				}
				fleet.Close()
			}
			b.ReportMetric(float64(len(cfgs)*2*b.N)/b.Elapsed().Seconds(), "sims/s")
		})
	}
}
