package ssd

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"autoblox/internal/workload"
)

// TestZeroFaultRateMatchesGolden pins the central gating guarantee: a
// FaultProfile with Rate == 0 and no die failures — even with a nonzero
// Seed — leaves the simulator bit-identical to the pre-fault-model
// golden results (the fault state is never even allocated).
func TestZeroFaultRateMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulations")
	}
	fiu := workload.MustGenerate(workload.FIU, workload.Options{Requests: 12000, Seed: 11})
	p := smallDevice()
	p.Faults = FaultProfile{Rate: 0, Seed: 12345, DieFailures: 0}
	if p.Faults.Enabled() {
		t.Fatal("Rate=0 profile must be disabled")
	}
	got := runTrace(t, p, fiu)
	want := goldenRows[0] // small/gc=0/cache=0/fiu
	if int64(got.AvgLatency) != want.avgLatencyNs {
		t.Errorf("AvgLatency %d ns, want golden %d ns", int64(got.AvgLatency), want.avgLatencyNs)
	}
	if bits := math.Float64bits(got.EnergyJoules); bits != want.energyBits {
		t.Errorf("EnergyJoules 0x%x, want golden 0x%x", bits, want.energyBits)
	}
	if bits := math.Float64bits(got.ThroughputBps); bits != want.throughputBits {
		t.Errorf("ThroughputBps 0x%x, want golden 0x%x", bits, want.throughputBits)
	}
	if got.Erases != want.erases || got.UserPrograms != want.userPrograms || got.GCPrograms != want.gcPrograms {
		t.Errorf("op counters (%d,%d,%d) diverged from golden (%d,%d,%d)",
			got.Erases, got.UserPrograms, got.GCPrograms, want.erases, want.userPrograms, want.gcPrograms)
	}
	if got.ProgramFailures != 0 || got.ReadRetries != 0 || got.RetiredBlocks != 0 || got.FactoryBadBlocks != 0 {
		t.Errorf("disabled profile produced fault counters: %+v", got)
	}

	db := workload.MustGenerate(workload.Database, workload.Options{Requests: 3000, Seed: 11})
	pd := DefaultParams()
	pd.Faults = FaultProfile{Seed: 99}
	gotDB := runTrace(t, pd, db)
	wantDB := goldenRows[6] // default/alloc=CWDP/db
	if int64(gotDB.AvgLatency) != wantDB.avgLatencyNs {
		t.Errorf("db AvgLatency %d ns, want golden %d ns", int64(gotDB.AvgLatency), wantDB.avgLatencyNs)
	}
	if bits := math.Float64bits(gotDB.EnergyJoules); bits != wantDB.energyBits {
		t.Errorf("db EnergyJoules 0x%x, want golden 0x%x", bits, wantDB.energyBits)
	}
}

// faultTolerantDevice is smallDevice with enough over-provisioning
// headroom that moderate fault rates degrade the device without
// consuming it: retirement under pressure is a correct ErrOutOfSpace,
// but these tests want runs that survive to a Result.
func faultTolerantDevice() DeviceParams {
	p := smallDevice()
	p.OverprovisionRatio = 0.25
	p.InitialOccupancyFrac = 0.5
	return p
}

// TestFaultInjectionDeterministic verifies the whole faulted Result —
// every counter, quantile and float — is reproducible run-to-run for a
// fixed (params, seed, trace) triple.
func TestFaultInjectionDeterministic(t *testing.T) {
	tr := workload.MustGenerate(workload.FIU, workload.Options{Requests: 6000, Seed: 11})
	p := faultTolerantDevice()
	p.Faults = FaultProfile{Rate: 0.01, Seed: 42}
	a := runTrace(t, p, tr)
	b := runTrace(t, p, tr)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulted runs diverged:\n a=%+v\n b=%+v", a, b)
	}
	if a.ProgramFailures == 0 {
		t.Error("expected program failures at rate 0.01 under write pressure")
	}
	if a.ReadRetries == 0 {
		t.Error("expected read retries at rate 0.01")
	}
	if a.FactoryBadBlocks == 0 {
		t.Error("expected factory bad blocks (BadBlockPct=0.5 with faults enabled)")
	}
}

// TestFaultSeedChangesInjection: different seeds must produce different
// fault streams (otherwise the seed is not actually wired through).
func TestFaultSeedChangesInjection(t *testing.T) {
	tr := workload.MustGenerate(workload.FIU, workload.Options{Requests: 6000, Seed: 11})
	p := faultTolerantDevice()
	p.Faults = FaultProfile{Rate: 0.01, Seed: 1}
	a := runTrace(t, p, tr)
	p.Faults.Seed = 2
	b := runTrace(t, p, tr)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 and seed 2 produced identical faulted results")
	}
}

// TestReadRetryPenalty: on a read-heavy workload, injected read retries
// and ECC soft decodes can only lengthen the critical path.
func TestReadRetryPenalty(t *testing.T) {
	tr := workload.MustGenerate(workload.WebSearch, workload.Options{Requests: 5000, Seed: 7})
	p := faultTolerantDevice()
	clean := runTrace(t, p, tr)
	p.Faults = FaultProfile{Rate: 0.05, Seed: 5}
	faulted := runTrace(t, p, tr)
	if faulted.ReadRetries == 0 {
		t.Fatal("expected read retries at rate 0.05 on a read-heavy trace")
	}
	if faulted.AvgLatency < clean.AvgLatency {
		t.Fatalf("read retries shortened latency: %v < %v", faulted.AvgLatency, clean.AvgLatency)
	}
}

// TestDieFailureRemap: failing a die must redirect its traffic to the
// surviving planes and still complete the run; failing every die is a
// validation error.
func TestDieFailureRemap(t *testing.T) {
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 3000, Seed: 11})
	p := faultTolerantDevice()
	p.DiesPerChip = 2
	p.InitialOccupancyFrac = 0.3
	p.Faults = FaultProfile{Seed: 9, DieFailures: 1}
	res := runTrace(t, p, tr)
	if res.Requests == 0 {
		t.Fatal("die-failure run produced no requests")
	}

	f, err := newFTL(&p, 0)
	if err != nil {
		t.Fatal(err)
	}
	deadPlanes := 0
	for pl, dead := range f.faults.deadPlane {
		if !dead {
			continue
		}
		deadPlanes++
		if f.faults.redirect[pl] == planeID(pl) {
			t.Fatalf("dead plane %d redirects to itself", pl)
		}
		if f.faults.deadPlane[f.faults.redirect[pl]] {
			t.Fatalf("dead plane %d redirects to another dead plane", pl)
		}
	}
	if want := p.PlanesPerDie * p.Faults.DieFailures; deadPlanes != want {
		t.Fatalf("%d dead planes, want %d", deadPlanes, want)
	}

	p.Faults.DieFailures = p.Channels * p.ChipsPerChannel * p.DiesPerChip
	if err := p.Validate(); err == nil {
		t.Fatal("failing every die must not validate")
	}
}

// TestOutOfSpaceIsTypedError drives the FTL under an extreme erase-
// failure rate until fault-driven retirement consumes the over-
// provisioning: the result must be the sticky ErrOutOfSpace, never a
// panic.
func TestOutOfSpaceIsTypedError(t *testing.T) {
	p := smallDevice()
	p.Faults = FaultProfile{Rate: 0.4, Seed: 1}
	f, err := newFTL(&p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5_000_000 && f.fatal == nil; i++ {
		f.placePage(int64(i)%f.logicalPages, 0)
	}
	if !errors.Is(f.fatal, ErrOutOfSpace) {
		t.Fatalf("fatal = %v, want ErrOutOfSpace", f.fatal)
	}
	if f.faults.retiredBlocks == 0 {
		t.Fatal("out-of-space without retired blocks")
	}
	// The wedged FTL keeps answering placePage without panicking.
	f.placePage(0, 0)
}
