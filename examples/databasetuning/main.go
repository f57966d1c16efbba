// Database tuning: the paper's motivating scenario — a cloud platform
// that dedicatedly serves Database-as-a-Service wants an SSD tuned for
// its database workload (§1, §4.2).
//
// The example tunes a configuration for the Database cluster under the
// 512GB/NVMe/MLC constraints twice: once with the default β=0.1 (protect
// non-target workloads) and once with β=0 ("ignore non-target", the
// Table 1 lower rows), then compares what each choice does to the other
// workloads.
//
//	go run ./examples/databasetuning
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

func run(beta float64, dir string) (*autoblox.Framework, *autoblox.TuneResult) {
	fw, err := autoblox.New(autoblox.DefaultConstraints(), autoblox.Options{
		DBPath: filepath.Join(dir, fmt.Sprintf("db-beta-%g.db", beta)),
		Seed:   42,
		Beta:   beta,
		Tuner:  autoblox.TunerOptions{MaxIterations: 15, SGDSteps: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	var training []*autoblox.Trace
	for _, cat := range []workload.Category{workload.Database, workload.WebSearch, workload.CloudStorage, workload.KVStore} {
		training = append(training, workload.MustGenerate(cat, workload.Options{Requests: 8000, Seed: 3}))
	}
	if err := fw.LearnWorkloads(training); err != nil {
		log.Fatal(err)
	}
	res, err := fw.TuneContext(context.Background(), "Database")
	if err != nil {
		log.Fatal(err)
	}
	return fw, res
}

func main() {
	dir, err := os.MkdirTemp("", "autoblox-dbtuning")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// β = 0.1 (default): optimize Database while protecting the others.
	fwDefault, balanced := run(0.099999, dir) // explicit ~0.1 (0 selects the default anyway)
	defer fwDefault.Close()
	fmt.Printf("balanced (β≈0.1): grade %.4f in %d iterations\n", balanced.BestGrade, balanced.Iterations)
	fmt.Println("  config:", fwDefault.DescribeConfig(balanced.Best))

	// β = tiny: maximize Database alone (the paper's "ignore non-target"
	// rows, where cloud platforms serving only DBaaS don't care about
	// other workloads).
	fwSelfish, selfish := run(1e-9, dir)
	defer fwSelfish.Close()
	fmt.Printf("\nselfish (β→0):  grade %.4f in %d iterations\n", selfish.BestGrade, selfish.Iterations)
	fmt.Println("  config:", fwSelfish.DescribeConfig(selfish.Best))

	// Compare what each learned configuration does across workloads.
	fmt.Printf("\n%-14s %18s %18s\n", "workload", "balanced lat/tput", "selfish lat/tput")
	for _, cat := range []string{"Database", "WebSearch", "CloudStorage", "KVStore"} {
		b := balanced.BestPerf[cat][0]
		s := selfish.BestPerf[cat][0]
		fmt.Printf("%-14s %12.0fµs/%4.0fMBps %12.0fµs/%4.0fMBps\n", cat,
			float64(b.LatencyNS)/1e3, b.ThroughputBps/1e6,
			float64(s.LatencyNS)/1e3, s.ThroughputBps/1e6)
	}
	fmt.Println("\nThe β→0 run squeezes more out of Database but may regress the")
	fmt.Println("others — exactly the trade-off Table 1's lower rows quantify.")
}
