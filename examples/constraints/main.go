// Constraints: reproduce the §4.4 sensitivity study in miniature — the
// same target workload tuned under three different constraint sets
// (NVMe/MLC vs Intel 750, NVMe/SLC vs Samsung Z-SSD, SATA/MLC vs Samsung
// 850 PRO), showing that AutoBlox adapts the learned configuration to
// whatever hardware envelope the user specifies, including a power
// budget.
//
//	go run ./examples/constraints
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"autoblox"
	"autoblox/internal/ssd"
	"autoblox/internal/workload"
)

func tune(name string, cons autoblox.Constraints, ref autoblox.DeviceParams, dir string) {
	fw, err := autoblox.New(cons, autoblox.Options{
		DBPath:    filepath.Join(dir, name+".db"),
		Seed:      42,
		Reference: ref,
		Tuner:     autoblox.TunerOptions{MaxIterations: 12, SGDSteps: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()

	var traces []*autoblox.Trace
	for _, cat := range []workload.Category{workload.KVStore, workload.WebSearch, workload.CloudStorage} {
		traces = append(traces, workload.MustGenerate(cat, workload.Options{Requests: 6000, Seed: 11}))
	}
	if err := fw.LearnWorkloads(traces); err != nil {
		log.Fatal(err)
	}
	res, err := fw.TuneContext(context.Background(), "KVStore")
	if err != nil {
		fmt.Printf("%-22s tuning failed: %v\n", name, err)
		return
	}
	dev := fw.Space.ToDevice(res.Best)
	perf := res.BestPerf["KVStore"][0]
	fmt.Printf("%-22s grade %+.3f  %2dch x%2d chips x%d dies x%2d planes  cache %4dMB  power %.2fW\n",
		name, res.BestGrade, dev.Channels, dev.ChipsPerChannel, dev.DiesPerChip,
		dev.PlanesPerDie, dev.DataCacheBytes>>20, perf.PowerWatts)
}

func main() {
	dir, err := os.MkdirTemp("", "autoblox-constraints")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Println("KVStore tuned under different constraint sets (set_cons):")

	// §4.2: 512GB, NVMe, MLC — Intel 750 reference.
	nvmeMLC := autoblox.DefaultConstraints()
	tune("NVMe/MLC vs Intel750", nvmeMLC, autoblox.Intel750(), dir)

	// §4.4: flash-type sensitivity — SLC with the Z-SSD reference.
	slc := autoblox.DefaultConstraints()
	slc.Flash = ssd.SLC
	tune("NVMe/SLC vs Z-SSD", slc, autoblox.SamsungZSSD(), dir)

	// §4.4: interface sensitivity — SATA with the 850 PRO reference.
	sata := autoblox.DefaultConstraints()
	sata.Interface = ssd.SATA
	tune("SATA/MLC vs 850PRO", sata, autoblox.Samsung850Pro(), dir)

	// Power budget: a tight cap forces the search away from
	// power-hungry layouts (§3.4's power-constraint rejection).
	tight := autoblox.DefaultConstraints()
	tight.PowerBudgetWatts = 1.5
	tune("NVMe/MLC, 1.5W budget", tight, autoblox.Intel750(), dir)
}
