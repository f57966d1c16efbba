// Quickstart: the smallest end-to-end AutoBlox session.
//
// It teaches the framework three workload categories, asks for a
// recommendation for a new Database-like trace (which triggers a tuning
// run), then asks again and gets the answer straight from AutoDB.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"autoblox"
	"autoblox/internal/workload"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "autoblox-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Open a framework under the paper's default constraints:
	//    512GB capacity, NVMe interface, MLC flash.
	fw, err := autoblox.New(autoblox.DefaultConstraints(), autoblox.Options{
		DBPath: filepath.Join(dir, "autoblox.db"),
		Seed:   42,
		Tuner:  autoblox.TunerOptions{MaxIterations: 12, SGDSteps: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()

	// 2. Teach it what the known workload families look like (§3.1
	//    clustering). Real deployments feed blktrace captures here; the
	//    bundled generators stand in for the paper's production traces.
	var training []*autoblox.Trace
	for _, cat := range []workload.Category{workload.Database, workload.WebSearch, workload.CloudStorage} {
		training = append(training, workload.MustGenerate(cat, workload.Options{Requests: 9000, Seed: 1}))
	}
	if err := fw.LearnWorkloads(training); err != nil {
		log.Fatal(err)
	}
	fmt.Println("learned clusters:", fw.Workloads())

	// 3. A "new" workload arrives. RecommendContext clusters it and — since
	//    AutoDB is empty — learns an optimized configuration for it.
	newTrace := workload.MustGenerate(workload.Database, workload.Options{Requests: 8000, Seed: 777})
	t0 := time.Now()
	rec, err := fw.RecommendContext(ctx, newTrace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nassigned to cluster %q (distance %.2f)\n", rec.Assignment.Label, rec.Assignment.Distance)
	fmt.Printf("learned a configuration in %v (%d search iterations, %d simulations)\n",
		time.Since(t0).Round(time.Millisecond), rec.Tune.Iterations, rec.Tune.SimRuns)
	fmt.Printf("grade vs Intel 750 reference: %.4f\n", rec.Grade)
	fmt.Println("critical parameters:", fw.DescribeConfig(rec.Config))
	fmt.Printf("device: %d channels x %d chips x %d dies x %d planes, %dMB cache\n",
		rec.Device.Channels, rec.Device.ChipsPerChannel, rec.Device.DiesPerChip,
		rec.Device.PlanesPerDie, rec.Device.DataCacheBytes>>20)

	// 4. The next request for the same workload family is served from
	//    the configuration database instantly.
	again := workload.MustGenerate(workload.Database, workload.Options{Requests: 8000, Seed: 778})
	t0 = time.Now()
	rec2, err := fw.RecommendContext(ctx, again)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsecond request served from AutoDB in %v (cached=%v, same grade %.4f)\n",
		time.Since(t0).Round(time.Millisecond), rec2.FromCache, rec2.Grade)
}
