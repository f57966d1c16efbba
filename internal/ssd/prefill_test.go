package ssd

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"autoblox/internal/obs"
	"autoblox/internal/workload"
)

// perPageFTL builds the reference warm-up: an empty FTL driven through
// prefillPages, one placePage call per logical page.
func perPageFTL(t *testing.T, p *DeviceParams, occupancy float64) *ftl {
	t.Helper()
	f, err := newFTL(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.prefillPages(int64(float64(f.logicalPages) * occupancy))
	if f.fatal != nil {
		t.Fatalf("per-page prefill: %v", f.fatal)
	}
	return f
}

// diffFTL names the first FTL state field where a and b differ, or
// returns "" when the two states are identical.
func diffFTL(a, b *ftl) string {
	if a.stripe != b.stripe {
		return fmt.Sprintf("stripe %d != %d", a.stripe, b.stripe)
	}
	for lp := range a.mapping {
		if a.mapping[lp] != b.mapping[lp] {
			return fmt.Sprintf("mapping[%d] %#x != %#x", lp, a.mapping[lp], b.mapping[lp])
		}
	}
	for pi := range a.planes {
		pa, pb := &a.planes[pi], &b.planes[pi]
		for bi := range pa.blocks {
			ba, bb := &pa.blocks[bi], &pb.blocks[bi]
			if !reflect.DeepEqual(ba.pages, bb.pages) {
				return fmt.Sprintf("plane %d block %d pages differ", pi, bi)
			}
			if ba.valid != bb.valid || ba.writePtr != bb.writePtr || ba.allocSeq != bb.allocSeq ||
				ba.lane != bb.lane || ba.eraseCount != bb.eraseCount {
				return fmt.Sprintf("plane %d block %d: valid/writePtr/allocSeq/lane/erase %d/%d/%d/%d/%d != %d/%d/%d/%d/%d",
					pi, bi, ba.valid, ba.writePtr, ba.allocSeq, ba.lane, ba.eraseCount,
					bb.valid, bb.writePtr, bb.allocSeq, bb.lane, bb.eraseCount)
			}
		}
		if !reflect.DeepEqual(pa.freeList, pb.freeList) {
			return fmt.Sprintf("plane %d freeList %v != %v", pi, pa.freeList, pb.freeList)
		}
		if !reflect.DeepEqual(pa.actives, pb.actives) {
			return fmt.Sprintf("plane %d actives %v != %v", pi, pa.actives, pb.actives)
		}
		if pa.allocSeq != pb.allocSeq || pa.minErase != pb.minErase || pa.maxErase != pb.maxErase {
			return fmt.Sprintf("plane %d allocSeq/minErase/maxErase %d/%d/%d != %d/%d/%d",
				pi, pa.allocSeq, pa.minErase, pa.maxErase, pb.allocSeq, pb.minErase, pb.maxErase)
		}
		if pa.gcRuns != pb.gcRuns || pa.wlSwaps != pb.wlSwaps || pa.moveCount != pb.moveCount || pa.nextFree != pb.nextFree {
			return fmt.Sprintf("plane %d counters differ", pi)
		}
	}
	if a.userReads != b.userReads || a.userPrograms != b.userPrograms || a.gcReads != b.gcReads ||
		a.gcPrograms != b.gcPrograms || a.erases != b.erases ||
		a.mappingReads != b.mappingReads || a.mappingWrites != b.mappingWrites {
		return "op counters differ"
	}
	// Catch-all over every remaining field (zones, streams, faults, fatal).
	if !reflect.DeepEqual(*a, *b) {
		return "FTL states differ outside the fields listed above"
	}
	return ""
}

// TestPrefillClosedFormMatchesPerPage pins the block-at-a-time warm-up
// to the per-page one: for every alloc scheme and host interface, across
// occupancies that hit the empty device, a single page, an exactly full
// last block (which stays active), a partial last chunk and a nearly
// full device, both build the same FTL state.
func TestPrefillClosedFormMatchesPerPage(t *testing.T) {
	geometries := []struct {
		name string
		set  func(*DeviceParams)
	}{
		{"small", nil},
		{"3x2x1x2", func(p *DeviceParams) { // twelve planes: not a power of two
			p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie = 3, 2, 1, 2
			p.BlocksPerPlane, p.PagesPerBlock = 32, 16
		}},
	}
	for _, g := range geometries {
		for ii := range HostIfcNames() {
			for si := 0; si < NumAllocSchemes; si++ {
				for _, op := range []float64{0.03, 0.28} {
					for _, gc := range []float64{2, 20} {
						p := smallDevice()
						if g.set != nil {
							g.set(&p)
						}
						p.HostIfcModel = HostIfc(ii)
						p.ZoneSizeMB, p.MaxOpenZones, p.WriteStreams = 1, 4, 3
						p.PlaneAllocScheme = AllocScheme(si)
						p.OverprovisionRatio, p.GCThresholdPct = op, gc
						if err := p.Validate(); err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s/%s/%s/op=%g/gc=%g", g.name, p.HostIfcModel, p.PlaneAllocScheme, op, gc)
						for _, occ := range prefillOccupancies(t, &p) {
							checkPrefillEquivalent(t, fmt.Sprintf("%s/occ=%.6f", label, occ), &p, occ)
						}
					}
				}
			}
		}
	}
}

// prefillOccupancies returns occupancy fractions that hit the closed
// form's edge cases on p's scaled geometry.
func prefillOccupancies(t *testing.T, p *DeviceParams) []float64 {
	t.Helper()
	f, err := newFTL(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	L := f.logicalPages
	chunk := int64(len(f.planes)) * int64(f.pagesPerBlock)
	pages := func(n int64) float64 { return (float64(n) + 0.5) / float64(L) }
	return []float64{
		0,
		pages(1),
		pages(2 * chunk),             // every plane's last block exactly full
		pages(2*chunk + 1),           // one plane opens block 2 for one page
		pages(2*chunk + chunk/3 + 1), // partial last chunk
		0.5, 0.85, 0.99,
	}
}

func checkPrefillEquivalent(t *testing.T, label string, p *DeviceParams, occ float64) {
	t.Helper()
	closed, err := newFTL(p, occ)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	auditPrefill(t, label, closed, int64(float64(closed.logicalPages)*occ))
	if d := diffFTL(closed, perPageFTL(t, p, occ)); d != "" {
		t.Fatalf("%s: closed form != per-page: %s", label, d)
	}
}

// auditPrefill checks a warmed FTL without a reference (the per-page
// reference starts from the same empty device): logical pages [0, n)
// are mapped to slots that hold them, the rest are unmapped, and every
// allocated block is stale past its write pointer.
func auditPrefill(t *testing.T, label string, f *ftl, n int64) {
	t.Helper()
	for lp, v := range f.mapping {
		if int64(lp) >= n {
			if v != unmapped {
				t.Fatalf("%s: lp %d beyond the prefill is mapped", label, lp)
			}
			continue
		}
		pl, b, slot := unpackPPA(v)
		if v == unmapped || f.planes[pl].blocks[b].pages[slot] != int32(lp) {
			t.Fatalf("%s: lp %d is not where its mapping points", label, lp)
		}
	}
	var valid int64
	for pi := range f.planes {
		fp := &f.planes[pi]
		if fp.blocks[fp.actives[0]].pages == nil {
			t.Fatalf("%s: plane %d active block has no pages", label, pi)
		}
		for bi := range fp.blocks {
			blk := &fp.blocks[bi]
			valid += int64(blk.valid)
			for slot := int(blk.writePtr); slot < len(blk.pages); slot++ {
				if blk.pages[slot] != -1 {
					t.Fatalf("%s: plane %d block %d slot %d past the write pointer holds %d", label, pi, bi, slot, blk.pages[slot])
				}
			}
		}
	}
	if valid != n {
		t.Fatalf("%s: %d valid pages, want %d", label, valid, n)
	}
}

// TestPrefillClosedFormScaledPages covers a geometry where scaleGeometry
// halves pagesPerBlock as well as blocksPerPlane.
func TestPrefillClosedFormScaledPages(t *testing.T) {
	p := smallDevice()
	p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie = 3, 1, 1, 2
	p.BlocksPerPlane, p.PagesPerBlock = 16, 1<<17
	if _, ppb := scaleGeometry(&p, p.TotalPlanes()); ppb >= int32(p.PagesPerBlock) {
		t.Fatalf("geometry does not scale pagesPerBlock (ppb %d)", ppb)
	}
	for _, scheme := range []AllocScheme{AllocCWDP, AllocWPDC} {
		p.PlaneAllocScheme = scheme
		for _, occ := range []float64{0.5, 0.99} {
			checkPrefillEquivalent(t, fmt.Sprintf("%s/occ=%g", scheme, occ), &p, occ)
		}
	}
}

// TestPrefillFaultsTakePerPagePath checks that a device with fault state
// warms up page by page: its state matches the per-page reference, dead
// dies hold no pages (the closed form ignores redirects) and program
// failures were drawn. An over-full prefill still surfaces the typed
// error.
func TestPrefillFaultsTakePerPagePath(t *testing.T) {
	p := faultTolerantDevice()
	p.DiesPerChip = 2
	p.Faults = FaultProfile{Rate: 0.01, Seed: 5, DieFailures: 1}
	got, err := newFTL(&p, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffFTL(got, perPageFTL(t, &p, 0.3)); d != "" {
		t.Fatalf("faults-on prefill != per-page: %s", d)
	}
	if got.faults.programFailures == 0 {
		t.Fatal("faults-on prefill drew no program failures")
	}
	for pl, dead := range got.faults.deadPlane {
		if !dead {
			continue
		}
		for bi := range got.planes[pl].blocks {
			if got.planes[pl].blocks[bi].valid != 0 {
				t.Fatalf("dead plane %d block %d holds pages", pl, bi)
			}
		}
	}

	p.Faults.Rate = 0
	p.InitialOccupancyFrac = 0.9 // the surviving die cannot hold it
	_, err = newEngine(&p)
	if !errors.Is(err, ErrOutOfSpace) || !strings.Contains(err.Error(), "(during prefill)") {
		t.Fatalf("over-full prefill: err = %v, want ErrOutOfSpace (during prefill)", err)
	}
}

// TestSetupHistogramOncePerSim checks that an instrumented simulator
// records its device set-up once per run and returns the same Result as
// an uninstrumented one.
func TestSetupHistogramOncePerSim(t *testing.T) {
	p := smallDevice()
	tr := testTrace(workload.Database, 2000)
	bare := runTrace(t, p, tr)
	sim, err := NewSimulator(p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Obs = obs.NewRegistry()
	for i := 0; i < 2; i++ {
		res, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, bare) {
			t.Fatal("instrumented Result differs from uninstrumented")
		}
	}
	if n := sim.Obs.Histogram(MetricSetup).Count(); n != 2 {
		t.Fatalf("%s holds %d samples after 2 sims, want 2", MetricSetup, n)
	}
}

// engineSink keeps BenchmarkNewEngine's result live.
var engineSink *engine

// BenchmarkNewEngine measures a sim's device set-up: building the FTL,
// CMT and cache and prefilling to the initial occupancy.
func BenchmarkNewEngine(b *testing.B) {
	gcPart := DefaultParams()
	gcPart.Channels, gcPart.ChipsPerChannel, gcPart.DiesPerChip, gcPart.PlanesPerDie = 2, 2, 2, 2
	gcPart.BlocksPerPlane, gcPart.PagesPerBlock = 1024, 64
	gcPart.InitialOccupancyFrac = 0.85
	for _, c := range []struct {
		name string
		p    DeviceParams
	}{
		{"default", DefaultParams()},
		{"2x2x2x2-1024x64-occ85", gcPart},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := c.p
			for i := 0; i < b.N; i++ {
				e, err := newEngine(&p)
				if err != nil {
					b.Fatal(err)
				}
				engineSink = e
			}
		})
	}
}
