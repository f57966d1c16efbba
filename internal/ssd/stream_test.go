package ssd

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// TestStreamedMatchesMaterialized is the golden equivalence test of the
// streaming refactor: for every workload category, RunSource over the
// lazy generator cursor must produce a Result bit-for-bit identical to
// Run over the materialized trace — every latency, counter, float and
// histogram bucket.
func TestStreamedMatchesMaterialized(t *testing.T) {
	opt := workload.Options{Requests: 3000, Seed: 11}
	for _, c := range workload.All() {
		p := smallDevice()
		sim, err := NewSimulator(p)
		if err != nil {
			t.Fatal(err)
		}
		materialized, err := sim.Run(workload.MustGenerate(c, opt))
		if err != nil {
			t.Fatalf("%s: materialized run: %v", c, err)
		}
		streamed, err := sim.RunSource(workload.MustSource(c, opt))
		if err != nil {
			t.Fatalf("%s: streamed run: %v", c, err)
		}
		if !reflect.DeepEqual(streamed, materialized) {
			t.Errorf("%s: streamed result differs from materialized:\n streamed     %+v\n materialized %+v",
				c, streamed, materialized)
		}
	}
	// And on the default (large) device for a couple of categories, so the
	// equivalence is not an artifact of the small test geometry.
	for _, c := range []workload.Category{workload.Database, workload.FIU} {
		sim, err := NewSimulator(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		materialized, err := sim.Run(workload.MustGenerate(c, opt))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := sim.RunSource(workload.MustSource(c, opt))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, materialized) {
			t.Errorf("%s/default: streamed result differs from materialized", c)
		}
	}
}

// TestRunSourceStreamingReader closes the file loop: a trace written to
// the blktrace text format and replayed through the constant-memory
// reader must simulate identically to the in-memory original (modulo
// nothing: the writer's %.6f µs-precision timestamps round-trip exactly
// for generator arrivals only after quantization, so the comparison
// parses the same bytes for both paths).
func TestRunSourceStreamingReader(t *testing.T) {
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 2000, Seed: 11})
	var buf bytes.Buffer
	if err := trace.WriteBlktrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	parsed, err := trace.ParseBlktrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(smallDevice())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(parsed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunSource(trace.NewBlktraceSource(bytes.NewReader(data), parsed.Name))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file-streamed result differs from buffered-parse result")
	}
}

// TestZeroMakespanGuard pins the buildResult fallback: when every
// completion coincides with the first arrival (or dispatch gating drives
// the span negative), rates must fall back to the latency sum instead of
// dividing by zero.
func TestZeroMakespanGuard(t *testing.T) {
	p := smallDevice()
	eng, err := newEngine(&p)
	if err != nil {
		t.Fatal(err)
	}
	eng.latHist.Record(1000)
	r := eng.buildResult(1, 1000, 4096, 500, 500) // lastCompletion == firstArrival
	if r.Makespan != 1000 {
		t.Fatalf("Makespan = %v, want latency-sum fallback 1000ns", r.Makespan)
	}
	for name, v := range map[string]float64{
		"IOPS": r.IOPS, "ThroughputBps": r.ThroughputBps, "AvgPowerWatts": r.AvgPowerWatts,
	} {
		if math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
			t.Fatalf("%s = %g, want finite positive", name, v)
		}
	}

	// Degenerate-of-the-degenerate: zero latency sum still must not yield
	// a zero makespan.
	eng2, err := newEngine(&p)
	if err != nil {
		t.Fatal(err)
	}
	eng2.latHist.Record(0)
	r2 := eng2.buildResult(1, 0, 0, 700, 600) // negative span, zero latSum
	if r2.Makespan != 1 {
		t.Fatalf("Makespan = %v, want 1ns floor", r2.Makespan)
	}
	if math.IsInf(r2.IOPS, 0) || math.IsNaN(r2.IOPS) {
		t.Fatalf("IOPS = %g", r2.IOPS)
	}

	// End-to-end: a single-request trace exercises the guard path through
	// Run and must report finite, positive rates.
	sim, err := NewSimulator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(&trace.Trace{Name: "one", Requests: []trace.Request{
		{Arrival: 0, LBA: 1024, Sectors: 8, Op: trace.Read},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || math.IsInf(res.IOPS, 0) || math.IsNaN(res.IOPS) || res.IOPS <= 0 {
		t.Fatalf("single-request run: makespan %v IOPS %g", res.Makespan, res.IOPS)
	}
}

// TestPageSpanWrap pins the wrap-around fix: a request whose folded page
// range crosses the end of the logical space is modeled page for page
// (the old code silently collapsed it to one page), and oversized spans
// clamp to the logical page count.
func TestPageSpanWrap(t *testing.T) {
	p := smallDevice()
	f, err := newFTL(&p, 0)
	if err != nil {
		t.Fatal(err)
	}
	spp := uint64(f.sectorsPerPage)
	L := f.logicalPages

	// Non-wrapping request: 4 pages from page 0.
	if first, n := f.pageSpan(0, uint32(4*spp)); first != 0 || n != 4 {
		t.Fatalf("pageSpan(0, 4 pages) = (%d, %d), want (0, 4)", first, n)
	}
	// Wrapping request: starts at the last logical page, spans 4 pages
	// (L-1, 0, 1, 2 after the modular fold).
	lba := uint64(L-1) * uint64(f.capScale) * spp
	first, n := f.pageSpan(lba, uint32(4*spp))
	if first != L-1 || n != 4 {
		t.Fatalf("pageSpan(wrap, 4 pages) = (%d, %d), want (%d, 4)", first, n, L-1)
	}
	// Zero sectors touch their page.
	if first, n := f.pageSpan(17*spp, 0); first != 17 || n != 1 {
		t.Fatalf("pageSpan(17, 0) = (%d, %d), want (17, 1)", first, n)
	}
	// A span wider than the logical space clamps to it: the modular space
	// cannot hold more distinct pages.
	if _, n := f.pageSpan(0, ^uint32(0)); n != L {
		t.Fatalf("oversized span = %d pages, want clamp to %d", n, L)
	}

	// Behavioral check: a wrapping 4-page read must do the same flash work
	// as a non-wrapping 4-page read (4 user reads), not collapse to 1.
	run := func(lba uint64) *Result {
		sim, err := NewSimulator(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(&trace.Trace{Name: "wrap", Requests: []trace.Request{
			{Arrival: 0, LBA: lba, Sectors: uint32(4 * spp), Op: trace.Read},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wrapped, straight := run(lba), run(0)
	if wrapped.UserReads != straight.UserReads {
		t.Fatalf("wrapped read did %d flash reads, non-wrapped did %d (wrap collapsed)",
			wrapped.UserReads, straight.UserReads)
	}
	if wrapped.UserReads != 4 {
		t.Fatalf("4-page read did %d flash reads, want 4", wrapped.UserReads)
	}
}

// benchSimWorkload drives one simulation per iteration; streamed runs
// pull from the lazy generator, materialized runs first build the whole
// trace in memory. The bytes/op gap between the two is the refactor's
// acceptance criterion (≥10× at 1M requests).
func benchSimWorkload(b *testing.B, n int, streamed bool) {
	p := smallDevice()
	sim, err := NewSimulator(p)
	if err != nil {
		b.Fatal(err)
	}
	opt := workload.Options{Requests: n, Seed: 11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if streamed {
			if _, err := sim.RunSource(workload.MustSource(workload.Database, opt)); err != nil {
				b.Fatal(err)
			}
		} else {
			tr := workload.MustGenerate(workload.Database, opt)
			if _, err := sim.Run(tr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSimStreamed(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchSimWorkload(b, n, true) })
	}
}

func BenchmarkSimMaterialized(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchSimWorkload(b, n, false) })
	}
}
