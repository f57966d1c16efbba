// What-if analysis: §4.5 — given a performance target ("cut WebSearch
// latency 2x") and expanded hardware bounds beyond today's commodity
// parts, which device parameters must advance, and to what values?
//
// SSD vendors use this mode to decide what the next-generation part
// needs (faster flash? wider channels? more DRAM?).
//
//	go run ./examples/whatif
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"autoblox"
	"autoblox/internal/workload"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "autoblox-whatif")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// WhatIfSpace widens the bounds: up to 64 channels/chips, 2GB DRAM
	// grids, and — crucially — tunable flash timings and channel rates
	// that are fixed silicon properties in the commodity space.
	fw, err := autoblox.New(autoblox.DefaultConstraints(), autoblox.Options{
		DBPath:      filepath.Join(dir, "whatif.db"),
		Seed:        42,
		WhatIfSpace: true,
		Tuner:       autoblox.TunerOptions{MaxIterations: 30, SGDSteps: 6},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()

	var training []*autoblox.Trace
	for _, cat := range []workload.Category{workload.WebSearch, workload.Database} {
		training = append(training, workload.MustGenerate(cat, workload.Options{Requests: 8000, Seed: 5}))
	}
	if err := fw.LearnWorkloads(training); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("what-if search space: %.3g configurations\n\n", fw.Space.SearchSpaceSize())

	// Latency goal for the latency-critical workload.
	res, err := fw.WhatIfContext(ctx, autoblox.WhatIfGoal{Target: "WebSearch", LatencyReduction: 2.0})
	if err != nil {
		log.Fatal(err)
	}
	report("WebSearch, 2x latency reduction", res)

	// Throughput goal for the throughput-intensive workload.
	res, err = fw.WhatIfContext(ctx, autoblox.WhatIfGoal{Target: "Database", ThroughputGain: 1.5})
	if err != nil {
		log.Fatal(err)
	}
	report("Database, 1.5x throughput gain", res)
}

func report(title string, res *autoblox.WhatIfResult) {
	fmt.Printf("goal: %s\n", title)
	fmt.Printf("  achieved: %v (latency %.2fx, throughput %.2fx, %d iterations)\n",
		res.Achieved, res.LatencySpeedup, res.ThroughputSpeedup, res.Iterations)
	fmt.Println("  the configuration that gets there:")
	for _, name := range []string{"FlashChannelCount", "ChipNoPerChannel", "DataCacheSize",
		"CMTCapacity", "ChannelTransferRate", "ChannelWidth", "PageReadLatency", "PageProgramLatency"} {
		fmt.Printf("    %-22s %g\n", name, res.CriticalParams[name])
	}
	fmt.Println()
}
