package ssd

import (
	"testing"
	"testing/quick"

	"autoblox/internal/workload"
)

func newTestFTL(t *testing.T, mutate func(*DeviceParams)) *ftl {
	t.Helper()
	p := smallDevice()
	if mutate != nil {
		mutate(&p)
	}
	f, err := newFTL(&p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPPARoundTrip(t *testing.T) {
	f := func(planeRaw uint16, blockRaw, slotRaw uint32) bool {
		plane := planeID(planeRaw % (1 << 15))
		block := int32(blockRaw % (1 << 23))
		slot := int32(slotRaw % (1 << 23))
		gp, gb, gs := unpackPPA(packPPA(plane, block, slot))
		return gp == plane && gb == block && gs == slot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlacePageInvalidatesOldCopy(t *testing.T) {
	f := newTestFTL(t, nil)
	pl1, _, _ := f.placePage(42, 0)
	old := f.mapping[42]
	opl, ob, oslot := unpackPPA(old)
	if opl != pl1 {
		t.Fatal("mapping does not match returned plane")
	}
	// Overwrite: old slot becomes stale, valid count drops.
	before := f.planes[opl].blocks[ob].valid
	f.placePage(42, 0)
	after := f.planes[opl].blocks[ob].valid
	if f.planes[opl].blocks[ob].pages[oslot] != -1 {
		t.Fatal("old slot not invalidated")
	}
	if after != before-1 {
		t.Fatalf("valid count %d -> %d, want decrement", before, after)
	}
}

func TestLogicalSpaceBounds(t *testing.T) {
	f := newTestFTL(t, nil)
	// Any LBA folds into [0, logicalPages).
	for _, lba := range []uint64{0, 1, 1 << 20, 1 << 40, ^uint64(0) >> 1} {
		lp := f.logicalPage(lba)
		if lp < 0 || lp >= f.logicalPages {
			t.Fatalf("logicalPage(%d) = %d outside [0,%d)", lba, lp, f.logicalPages)
		}
	}
}

func TestValidCountsConsistentUnderChurn(t *testing.T) {
	f := newTestFTL(t, nil)
	// Hammer a small working set so GC churns, then audit invariants.
	ws := f.logicalPages / 2
	for i := int64(0); i < ws*6; i++ {
		f.placePage(i%ws, 0)
	}
	var totalValid int64
	for pi := range f.planes {
		fp := &f.planes[pi]
		for bi := range fp.blocks {
			blk := &fp.blocks[bi]
			if blk.valid < 0 {
				t.Fatalf("negative valid count on plane %d block %d", pi, bi)
			}
			var live int32
			for slot := int32(0); slot < blk.writePtr; slot++ {
				lp := blk.pages[slot]
				if lp < 0 {
					continue
				}
				if f.mapping[lp] == packPPA(planeID(pi), int32(bi), slot) {
					live++
				}
			}
			if live != blk.valid {
				t.Fatalf("plane %d block %d: recorded valid %d, actual live %d", pi, bi, blk.valid, live)
			}
			totalValid += int64(blk.valid)
		}
	}
	// Every mapped page is live exactly once.
	var mapped int64
	for _, m := range f.mapping {
		if m != unmapped {
			mapped++
		}
	}
	if mapped != totalValid {
		t.Fatalf("mapped pages %d != total valid %d", mapped, totalValid)
	}
	if f.erases == 0 {
		t.Fatal("churn of 3x logical space should trigger erases")
	}
}

func TestGreedyVsFIFOWriteAmplification(t *testing.T) {
	// Greedy GC picks minimum-valid victims, so its write amplification
	// must not exceed FIFO's on a skewed workload.
	tr := testTrace(workload.FIU, 20000)
	greedy := smallDevice()
	greedy.GCPolicy = GCGreedy
	fifo := smallDevice()
	fifo.GCPolicy = GCFIFO
	rg := runTrace(t, greedy, tr)
	rf := runTrace(t, fifo, tr)
	if rg.GCRuns == 0 || rf.GCRuns == 0 {
		t.Skip("no GC pressure")
	}
	if rg.WriteAmplification > rf.WriteAmplification*1.05 {
		t.Fatalf("greedy WA %.3f should not exceed FIFO WA %.3f", rg.WriteAmplification, rf.WriteAmplification)
	}
}

func TestOverprovisioningReducesWA(t *testing.T) {
	tr := testTrace(workload.FIU, 20000)
	lowOP := smallDevice()
	lowOP.OverprovisionRatio = 0.05
	highOP := smallDevice()
	highOP.OverprovisionRatio = 0.28
	rl := runTrace(t, lowOP, tr)
	rh := runTrace(t, highOP, tr)
	if rl.GCRuns == 0 {
		t.Skip("no GC pressure")
	}
	if rh.WriteAmplification > rl.WriteAmplification {
		t.Fatalf("28%% OP WA %.3f should not exceed 5%% OP WA %.3f",
			rh.WriteAmplification, rl.WriteAmplification)
	}
}

func TestCMTGranularityTradeoff(t *testing.T) {
	// Coarser mapping granularity covers more pages per entry: fewer
	// misses for a sequential-leaning workload.
	tr := testTrace(workload.LevelDB, 8000)
	fine := DefaultParams()
	fine.CMTBytes = 64 << 10
	fine.MappingGranularity = 1
	coarse := DefaultParams()
	coarse.CMTBytes = 64 << 10
	coarse.MappingGranularity = 8
	rf := runTrace(t, fine, tr)
	rc := runTrace(t, coarse, tr)
	if rc.MappingReads > rf.MappingReads {
		t.Fatalf("granularity 8 mapping reads %d should not exceed granularity 1's %d",
			rc.MappingReads, rf.MappingReads)
	}
}

func TestCachePoliciesAllWork(t *testing.T) {
	tr := testTrace(workload.VDI, 5000)
	// Iterate the registry, not a literal list, so a newly registered
	// policy is exercised automatically.
	for i := range CachePolicyNames() {
		pol := CachePolicy(i)
		p := DefaultParams()
		p.CachePolicy = pol
		res := runTrace(t, p, tr)
		if res.AvgLatency <= 0 || res.CacheHits <= 0 {
			t.Fatalf("policy %s produced bad results", pol)
		}
	}
}

func TestAllocSchemesAllSimulate(t *testing.T) {
	tr := testTrace(workload.Database, 2000)
	for scheme := 0; scheme < NumAllocSchemes; scheme++ {
		p := DefaultParams()
		p.PlaneAllocScheme = AllocScheme(scheme)
		res := runTrace(t, p, tr)
		if res.AvgLatency <= 0 {
			t.Fatalf("scheme %s produced bad results", AllocScheme(scheme))
		}
	}
}

func TestChannelFirstBeatsPlaneFirstForParallelWrites(t *testing.T) {
	// Channel-first striping (CWDP) spreads consecutive writes across
	// buses; plane-first (WPDC-like orders starting within one chip
	// region) serializes them. Compare a write-heavy sequential stream.
	tr := testTrace(workload.CloudStorage, 4000)
	cwdp := DefaultParams()
	cwdp.PlaneAllocScheme = AllocCWDP
	wpdc := DefaultParams()
	wpdc.PlaneAllocScheme = AllocWPDC
	rc := runTrace(t, cwdp, tr)
	rw := runTrace(t, wpdc, tr)
	// CWDP must not lose on throughput (it can tie if the bus is idle).
	if rc.ThroughputBps < rw.ThroughputBps*0.98 {
		t.Fatalf("CWDP throughput %g lost to WPDC %g", rc.ThroughputBps, rw.ThroughputBps)
	}
}

func TestWearReport(t *testing.T) {
	tr := testTrace(workload.FIU, 25000)
	p := smallDevice()
	res := runTrace(t, p, tr)
	w := res.Wear
	if w.PECycleLimit != peCycleLimit(p.FlashType) {
		t.Fatalf("PE limit %d", w.PECycleLimit)
	}
	if res.Erases > 0 {
		if w.MaxEraseCount <= 0 || w.MeanEraseCount <= 0 {
			t.Fatalf("erases happened but wear empty: %+v", w)
		}
		if w.Imbalance < 1 {
			t.Fatalf("imbalance %g < 1", w.Imbalance)
		}
		if w.ProjectedLifetime <= 0 {
			t.Fatalf("no projected lifetime despite erases")
		}
	}
	// Static wear leveling should not worsen the imbalance.
	noWL := p
	noWL.StaticWearLeveling = false
	noWL.DynamicWearLeveling = false
	rNo := runTrace(t, noWL, tr)
	if rNo.Erases == 0 || res.Erases == 0 {
		t.Skip("no GC pressure")
	}
	if res.Wear.Imbalance > rNo.Wear.Imbalance*1.25 {
		t.Fatalf("wear leveling imbalance %.2f much worse than none %.2f",
			res.Wear.Imbalance, rNo.Wear.Imbalance)
	}
}

func TestPECycleLimitsOrdered(t *testing.T) {
	if !(peCycleLimit(SLC) > peCycleLimit(MLC) && peCycleLimit(MLC) > peCycleLimit(TLC)) {
		t.Fatal("PE cycle limits must be SLC > MLC > TLC")
	}
}
