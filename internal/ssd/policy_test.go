package ssd

import (
	"strings"
	"testing"

	"autoblox/internal/workload"
)

// Every policy domain must round-trip name <-> value through the
// registry, expose unique names, and reject unknown names with an error
// (never a silent default).
func TestPolicyRegistryRoundTrips(t *testing.T) {
	for i, name := range GCPolicyNames() {
		v, err := ParseGCPolicy(name)
		if err != nil || v != GCPolicy(i) {
			t.Fatalf("ParseGCPolicy(%q) = %v, %v; want %d", name, v, err, i)
		}
		if GCPolicy(i).String() != name {
			t.Fatalf("GCPolicy(%d).String() = %q, want %q", i, GCPolicy(i).String(), name)
		}
	}
	for i, name := range CachePolicyNames() {
		v, err := ParseCachePolicy(name)
		if err != nil || v != CachePolicy(i) {
			t.Fatalf("ParseCachePolicy(%q) = %v, %v; want %d", name, v, err, i)
		}
		if CachePolicy(i).String() != name {
			t.Fatalf("CachePolicy(%d).String() = %q, want %q", i, CachePolicy(i).String(), name)
		}
	}
	for i, name := range AllocSchemeNames() {
		v, err := ParseAllocScheme(name)
		if err != nil || v != AllocScheme(i) {
			t.Fatalf("ParseAllocScheme(%q) = %v, %v; want %d", name, v, err, i)
		}
	}
	for i, name := range InterfaceNames() {
		v, err := ParseInterface(name)
		if err != nil || v != Interface(i) {
			t.Fatalf("ParseInterface(%q) = %v, %v; want %d", name, v, err, i)
		}
	}
	for i, name := range FlashTypeNames() {
		v, err := ParseFlashType(name)
		if err != nil || v != FlashType(i) {
			t.Fatalf("ParseFlashType(%q) = %v, %v; want %d", name, v, err, i)
		}
	}
	for _, lists := range [][]string{GCPolicyNames(), CachePolicyNames(), AllocSchemeNames(), InterfaceNames(), FlashTypeNames()} {
		seen := map[string]bool{}
		for _, n := range lists {
			if n == "" || seen[n] {
				t.Fatalf("empty or duplicate registry name %q in %v", n, lists)
			}
			seen[n] = true
		}
	}
	if _, err := ParseGCPolicy("oracle"); err == nil {
		t.Fatal("unknown gc policy accepted")
	}
	if _, err := ParseCachePolicy("MRU"); err == nil {
		t.Fatal("unknown cache policy accepted")
	}
	// The error message lists the valid names for the operator.
	_, err := ParseGCPolicy("nope")
	if err == nil || !strings.Contains(err.Error(), "costbenefit") {
		t.Fatalf("parse error should list valid names, got %v", err)
	}
}

func TestDescribeHelpersListPolicies(t *testing.T) {
	gc := DescribeGCPolicies()
	for _, want := range []string{"greedy", "fifo", "costbenefit"} {
		if !strings.Contains(gc, want) {
			t.Fatalf("DescribeGCPolicies() = %q missing %q", gc, want)
		}
	}
	cp := DescribeCachePolicies()
	for _, want := range []string{"LRU", "CLOCK", "second-chance"} {
		if !strings.Contains(cp, want) {
			t.Fatalf("DescribeCachePolicies() = %q missing %q", cp, want)
		}
	}
}

func TestValidateRejectsUnknownPolicyValues(t *testing.T) {
	bad := []func(*DeviceParams){
		func(p *DeviceParams) { p.GCPolicy = GCPolicy(99) },
		func(p *DeviceParams) { p.CachePolicy = CachePolicy(99) },
		func(p *DeviceParams) { p.HostInterface = Interface(9) },
		func(p *DeviceParams) { p.FlashType = FlashType(9) },
		func(p *DeviceParams) { p.PlaneAllocScheme = AllocScheme(200) },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: out-of-domain policy value accepted", i)
		}
	}
}

// fullBlock force-writes a block's GC-relevant state for victim-policy
// unit tests.
func fullBlock(f *ftl, fp *flashPlane, i, valid int32, seq int64, erases int32) {
	b := &fp.blocks[i]
	b.pages = make([]int32, f.pagesPerBlock)
	fillStale(b.pages)
	b.writePtr = f.pagesPerBlock
	b.valid = valid
	b.allocSeq = seq
	b.eraseCount = erases
}

// Cost-benefit must prefer an old block with slightly more valid pages
// over a young sparse one (the LFS rule greedy cannot express), and
// among otherwise equal candidates must spare the worn block.
func TestCostBenefitVictimAgeAndWear(t *testing.T) {
	f := newTestFTL(t, func(p *DeviceParams) { p.GCPolicy = GCCostBenefit })
	fp := &f.planes[0]
	fp.allocSeq = 60
	fullBlock(f, fp, 1, 12, 1, 0)  // old, slightly more valid
	fullBlock(f, fp, 2, 10, 55, 0) // young, sparser
	if got := f.pickVictim(fp); got != 1 {
		t.Fatalf("cost-benefit picked block %d, want the old block 1", got)
	}
	if got := (greedyVictim{}).pickVictim(f, fp); got != 2 {
		t.Fatalf("greedy picked block %d, want the sparser block 2 (contrast case broken)", got)
	}

	// Wear discount: same age and utilization, very different wear.
	f2 := newTestFTL(t, func(p *DeviceParams) { p.GCPolicy = GCCostBenefit })
	fp2 := &f2.planes[0]
	fp2.allocSeq = 20
	fullBlock(f2, fp2, 1, 10, 5, 1000)
	fullBlock(f2, fp2, 2, 10, 5, 0)
	if got := f2.pickVictim(fp2); got != 2 {
		t.Fatalf("cost-benefit picked worn block %d, want the fresh block 2", got)
	}

	// Fully-valid blocks are never victims.
	f3 := newTestFTL(t, func(p *DeviceParams) { p.GCPolicy = GCCostBenefit })
	fp3 := &f3.planes[0]
	fullBlock(f3, fp3, 1, f3.pagesPerBlock, 1, 0)
	if got := f3.pickVictim(fp3); got != -1 {
		t.Fatalf("cost-benefit picked fully-valid block %d, want -1", got)
	}
}

// CLOCK grants referenced entries a second chance: a read sets the
// reference bit, and the eviction sweep skips that entry once,
// displacing the first unreferenced one instead.
func TestClockSecondChance(t *testing.T) {
	p := DefaultParams()
	p.CachePolicy = CacheCLOCK
	p.DataCacheBytes = 4 * int64(p.CacheLineBytes)
	d := newDataCache(&p, 1)
	if d.capacity != 4 {
		t.Fatalf("capacity = %d, want 4", d.capacity)
	}
	for lp := int64(1); lp <= 4; lp++ {
		d.insert(lp, false)
	}
	if !d.read(1) {
		t.Fatal("warm entry missed")
	}
	evicted, _ := d.insert(5, false)
	if evicted != 2 {
		t.Fatalf("evicted lp %d, want 2 (1 was referenced and spared)", evicted)
	}
	if !d.read(1) || d.read(2) {
		t.Fatal("reference bit not honored: 1 should survive, 2 should be gone")
	}
	// All referenced: the sweep clears every bit and still evicts.
	for lp := int64(3); lp <= 5; lp++ {
		d.read(lp)
	}
	if _, ok := d.entries[1]; !ok {
		t.Fatal("setup lost entry 1")
	}
	d.insert(6, false)
	if d.ll.Len() != d.capacity {
		t.Fatalf("cache holds %d entries, want %d", d.ll.Len(), d.capacity)
	}
}

// Every registered GC policy must drive a full simulation with real GC
// pressure.
func TestGCPoliciesAllSimulate(t *testing.T) {
	tr := workload.MustGenerate(workload.FIU, workload.Options{Requests: 8000, Seed: 11})
	for i := range GCPolicyNames() {
		pol := GCPolicy(i)
		p := smallDevice()
		p.GCPolicy = pol
		res := runTrace(t, p, tr)
		if res.AvgLatency <= 0 || res.GCRuns == 0 {
			t.Fatalf("policy %s: AvgLatency=%v GCRuns=%d", pol, res.AvgLatency, res.GCRuns)
		}
	}
}

// BenchmarkGCVictimPolicy measures steady-state write cost per policy
// with GC in the loop (victim selection is the dominant varying cost).
// cmd/benchjson picks these up for the CI BENCH artifact.
func BenchmarkGCVictimPolicy(b *testing.B) {
	for _, name := range GCPolicyNames() {
		pol, err := ParseGCPolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			p := smallDevice()
			p.GCPolicy = pol
			f, err := newFTL(&p, 0.9)
			if err != nil {
				b.Fatal(err)
			}
			ws := f.logicalPages / 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.placePage(int64(i)%ws, 0)
			}
		})
	}
}
