package ssd

import (
	"context"
	"fmt"
	"time"

	"autoblox/internal/obs"
	"autoblox/internal/trace"
)

// Result carries the measured performance and energy of one simulation.
type Result struct {
	Requests int
	// AvgLatency is the mean request latency (exact).
	AvgLatency time.Duration
	// P50/P95/P99/P999Latency are request-latency quantiles estimated
	// from a log-linear histogram of every request (conservative
	// nearest-rank upper bounds, ≤1/32 relative bucket error — see
	// obs.Histogram.Quantile). The histogram replaces the former
	// sort-the-whole-latency-slice single-P99 computation.
	P50Latency  time.Duration
	P95Latency  time.Duration
	P99Latency  time.Duration
	P999Latency time.Duration
	// LatencyHistogram is the full per-request latency distribution
	// (nanosecond samples) the quantiles above are read from.
	LatencyHistogram obs.HistogramSnapshot
	// ThroughputBps is total payload bytes divided by makespan.
	ThroughputBps float64
	// IOPS is requests divided by makespan.
	IOPS float64
	// Makespan is the span from first arrival to last completion.
	Makespan time.Duration
	// EnergyJoules is the modeled total device energy over the run.
	EnergyJoules float64
	// AvgPowerWatts is EnergyJoules / Makespan.
	AvgPowerWatts float64

	// Operation counters (post warm-up).
	UserReads, UserPrograms     int64
	GCReads, GCPrograms         int64
	Erases                      int64
	MappingReads, MappingWrites int64
	CacheHits, CacheMisses      int64
	CMTHits, CMTMisses          int64
	GCRuns                      int
	WearLevelSwaps              int
	// MergedRequests counts block-layer request merges (IOMergingEnabled).
	MergedRequests int64
	// ProactiveFlushes counts background dirty-cache write-backs
	// triggered by the WriteBufferFlushPct threshold.
	ProactiveFlushes int64
	// WriteAmplification is (user + GC programs) / user programs.
	WriteAmplification float64
	// Fault-injection counters (all zero when the FaultProfile is
	// disabled). The op counters cover the measured phase only;
	// RetiredBlocks/FactoryBadBlocks are end-of-run device state.
	ProgramFailures  int64
	EraseFailures    int64
	ReadRetries      int64
	ECCSoftDecodes   int64
	RetiredBlocks    int64
	FactoryBadBlocks int64
	// Host-interface model counters (hostifc.go). UserTrims counts TRIM
	// requests in the measured phase; TrimmedPages counts the mapped
	// logical pages they invalidated. WPViolations and ZoneResets are
	// zero unless the device runs the ZNS model.
	UserTrims    int64
	TrimmedPages int64
	WPViolations int64
	ZoneResets   int64
	// ChannelUtilization is the mean fraction of the makespan each
	// channel bus spent transferring data.
	ChannelUtilization float64
	// Wear summarizes block erase-count spread and projected endurance.
	Wear WearReport
}

// Simulator runs traces against a device configuration.
type Simulator struct {
	p DeviceParams
	// Obs, when non-nil, receives cross-run metrics: the shared
	// per-request latency histogram plus GC-pause and channel-stall
	// distributions. It never influences simulation results — instrumented
	// and uninstrumented runs are bit-for-bit identical — and may be
	// shared by concurrently running simulators (recording is atomic).
	Obs *obs.Registry
}

// Registry metric names recorded by instrumented simulations.
const (
	MetricRequestLatency = "ssd_request_latency_ns"
	MetricGCPause        = "ssd_gc_pause_ns"
	MetricChannelStall   = "ssd_channel_stall_ns"
	// MetricSetup records each sim's device set-up (building and
	// prefilling the FTL, CMT and cache) once per run.
	MetricSetup = "ssd_setup_ns"

	MetricFaultProgramFailures = "ssd_fault_program_failures_total"
	MetricFaultEraseFailures   = "ssd_fault_erase_failures_total"
	MetricFaultReadRetries     = "ssd_fault_read_retries_total"
	MetricFaultECCSoftDecodes  = "ssd_fault_ecc_soft_decodes_total"
	MetricFaultRetiredBlocks   = "ssd_fault_retired_blocks_total"
)

// NewSimulator validates params and returns a simulator.
func NewSimulator(p DeviceParams) (*Simulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{p: p}, nil
}

// Params returns the device configuration.
func (s *Simulator) Params() DeviceParams { return s.p }

// Run simulates the trace and returns measured metrics. Each call uses
// fresh device state (including the warm-up prefill), so runs are
// independent and deterministic. Run is a thin wrapper over RunSource;
// the two paths produce bit-for-bit identical results.
func (s *Simulator) Run(tr *trace.Trace) (*Result, error) {
	return s.RunSource(tr.Source())
}

// RunSource simulates a streaming trace without ever materializing it:
// the warm-up pass and the measured pass each consume one
// Reset-separated sweep of the source, and per-run memory is O(device
// state) — independent of trace length. The source must satisfy the
// trace.Source determinism contract (two sweeps yield identical request
// sequences); generator- and file-backed sources do by construction.
func (s *Simulator) RunSource(src trace.Source) (*Result, error) {
	return s.RunSourceContext(context.Background(), src)
}

// RunSourceContext is RunSource with cooperative cancellation: the
// warm-up and measured sweeps poll ctx every 1024 requests and return
// ctx.Err() when it fires, so a per-simulation timeout or an
// interrupted tuning run stops a simulation mid-flight instead of
// waiting out the trace. Cancellation never produces a partial Result.
func (s *Simulator) RunSourceContext(ctx context.Context, src trace.Source) (*Result, error) {
	var start time.Time
	if s.Obs != nil {
		start = time.Now()
	}
	eng, err := newEngine(&s.p)
	if err != nil {
		return nil, err
	}
	if s.Obs != nil {
		s.Obs.Histogram(MetricSetup).Record(time.Since(start).Nanoseconds())
	}
	n, err := eng.warmup(ctx, src)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("ssd: empty trace")
	}
	src.Reset()
	if err := src.Err(); err != nil {
		return nil, fmt.Errorf("ssd: rewind for measured pass: %w", err)
	}
	// Observability handles attach after warm-up so registry histograms
	// only see measured-phase events (warm-up replays the trace once).
	if s.Obs != nil {
		eng.reqHist = s.Obs.Histogram(MetricRequestLatency)
		eng.gcHist = s.Obs.Histogram(MetricGCPause)
		eng.stallHist = s.Obs.Histogram(MetricChannelStall)
	}
	res, err := eng.run(ctx, src)
	if err != nil {
		return nil, err
	}
	if fa := eng.ftl.faults; fa != nil && s.Obs != nil {
		s.Obs.Counter(MetricFaultProgramFailures).Add(fa.programFailures)
		s.Obs.Counter(MetricFaultEraseFailures).Add(fa.eraseFailures)
		s.Obs.Counter(MetricFaultReadRetries).Add(fa.readRetries)
		s.Obs.Counter(MetricFaultECCSoftDecodes).Add(fa.eccSoftDecodes)
		s.Obs.Counter(MetricFaultRetiredBlocks).Add(fa.retiredBlocks)
	}
	return res, nil
}

// warmup replays the trace once with timing disabled so the CMT, the
// data cache and the FTL's block occupancy reach steady state before
// measurement — the paper warms the simulator with traces before
// validation for the same reason (cold compulsory misses would otherwise
// dominate the measurement window). It returns the number of requests
// seen, so the caller can reject empty traces.
// The data cache is deliberately left cold: a sampled trace's footprint
// is far smaller than the production workload's, so warming the cache
// with the measurement trace would let configurations "win" by fitting
// the whole sample in DRAM — a hit rate the real workload could never
// see. Measured-phase cache hits therefore reflect only genuine
// intra-trace reuse.
func (e *engine) warmup(ctx context.Context, src trace.Source) (int, error) {
	e.warming = true
	defer func() { e.warming = false }()
	src.Reset()
	n := 0
	for {
		if n&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		req, ok := src.Next()
		if !ok {
			break
		}
		n++
		firstLP, nPages := e.ftl.pageSpan(req.LBA, req.Sectors)
		for k := int64(0); k < nPages; k++ {
			lp := (firstLP + k) % e.ftl.logicalPages
			switch req.Op {
			case trace.Read:
				e.readPage(lp, 0)
			case trace.Trim:
				e.trimPage(lp, 0)
			default:
				e.writePage(lp, 0, req.Stream)
			}
		}
	}
	if err := src.Err(); err != nil {
		return n, fmt.Errorf("ssd: warm-up sweep: %w", err)
	}
	if err := e.ftl.fatal; err != nil {
		return n, fmt.Errorf("%w (during warm-up)", err)
	}
	// Reset counters and timelines accumulated during warm-up.
	f := e.ftl
	f.userReads, f.userPrograms, f.gcReads, f.gcPrograms = 0, 0, 0, 0
	f.erases, f.mappingReads, f.mappingWrites = 0, 0, 0
	if f.faults != nil {
		f.faults.resetOpCounters()
	}
	for i := range f.planes {
		f.planes[i].gcRuns = 0
		f.planes[i].wlSwaps = 0
		f.planes[i].moveCount = 0
		f.planes[i].nextFree = 0
	}
	for i := range e.channelFree {
		e.channelFree[i] = 0
	}
	e.hostFree = 0
	e.cacheHits, e.cacheMisses, e.cmtHits, e.cmtMisses = 0, 0, 0, 0
	e.channelBusyNS, e.dramAccesses = 0, 0
	f.trimmedPages = 0
	if f.zns != nil {
		// The measured pass replays the same trace; stale warm-up write
		// pointers would turn every measured write into a violation, so
		// pointer state resets while block occupancy (the point of warming
		// up) is kept.
		f.zns.reset()
		for i := range e.zoneFree {
			e.zoneFree[i] = 0
		}
	}
	return n, nil
}

// engine is the per-run simulation state.
type engine struct {
	p     *DeviceParams
	ftl   *ftl
	cmt   *cmt
	cache *dataCache

	channelFree []int64 // per-channel bus timeline (ns)
	hostFree    int64   // shared host-link timeline (ns)
	zoneFree    []int64 // per-zone append-serialization timeline (ZNS only)
	warming     bool    // warm-up pass: FTL/CMT state only, no data cache

	// Derived per-op costs (ns).
	readNS, progNS, eraseNS int64
	xferNS                  int64 // one page over the channel bus
	dramNS                  int64 // one page through DRAM
	eccNS, fwNS             int64
	hostCmdNS               int64
	hostBps                 float64

	// Stats.
	cacheHits, cacheMisses int64
	cmtHits, cmtMisses     int64
	channelBusyNS          int64
	dramAccesses           int64
	mergedRequests         int64
	proactiveFlushes       int64
	userTrims              int64

	// latHist is the per-run request-latency histogram Result quantiles
	// are computed from (always allocated).
	latHist *obs.Histogram
	// Registry-backed histograms; nil (no-op) when the simulator runs
	// uninstrumented.
	reqHist, gcHist, stallHist *obs.Histogram
}

func newEngine(p *DeviceParams) (*engine, error) {
	f, err := newFTL(p, p.InitialOccupancyFrac)
	if err != nil {
		return nil, err
	}
	e := &engine{
		p:           p,
		ftl:         f,
		cmt:         newCMT(p, f.capScale),
		cache:       newDataCache(p, f.capScale),
		channelFree: make([]int64, p.Channels),
		latHist:     obs.NewHistogram(),
	}
	if f.zns != nil {
		// Zone-granular mapping: a ZNS device only tracks one write
		// pointer per zone, so a CMT entry covers a whole zone — the
		// model's metadata advantage over page-mapped conventional FTLs.
		e.cmt.gran = f.zns.zonePages
		e.zoneFree = make([]int64, len(f.zns.wp))
	}
	e.readNS = p.ReadLatency.Nanoseconds()
	e.progNS = p.ProgramLatency.Nanoseconds()
	e.eraseNS = p.EraseLatency.Nanoseconds()
	e.xferNS = int64(float64(p.PageSizeBytes) / p.ChannelBandwidthBps() * 1e9)
	// DRAM move of one page: bus width × frequency.
	dramBps := float64(p.DRAMMHz) * 1e6 * float64(p.DRAMBusBits) / 8 * 2 // DDR
	e.dramNS = int64(float64(p.PageSizeBytes)/dramBps*1e9) + 300         // + access latency
	e.eccNS = p.ECCLatency.Nanoseconds()
	e.fwNS = p.FirmwareOverhead.Nanoseconds()
	e.hostBps = p.HostBandwidthBps()
	if p.HostInterface == SATA {
		e.hostCmdNS = 25_000 // AHCI command overhead
	} else {
		qc := p.QueueCount
		if qc < 1 {
			qc = 1
		}
		e.hostCmdNS = int64(8_000 / qc)
		if e.hostCmdNS < 1_000 {
			e.hostCmdNS = 1_000
		}
	}
	return e, nil
}

// requestStream is the minimal pull interface the measured pass
// consumes; both trace.Source and the block-layer merge adapter
// satisfy it.
type requestStream interface {
	Next() (trace.Request, bool)
}

// run executes the measured pass over one sweep of the source. Latencies
// are folded into a running sum plus the latency histogram as they are
// produced — there is no per-request buffer, so memory stays O(device
// state) regardless of trace length.
func (e *engine) run(ctx context.Context, src trace.Source) (*Result, error) {
	var stream requestStream = src
	var ms *mergeStream
	if e.p.IOMergingEnabled {
		ms = newMergeStream(src)
		stream = ms
	}
	queues := newHostQueues(e.p)

	var (
		count, latSum  int64
		totalBytes     uint64
		firstArrival   int64
		lastCompletion int64
	)

	for {
		if count&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := e.ftl.fatal; err != nil {
			return nil, fmt.Errorf("%w (after %d measured requests)", err, count)
		}
		req, ok := stream.Next()
		if !ok {
			break
		}
		arrival := req.Arrival.Nanoseconds()
		if count == 0 {
			firstArrival = arrival
		}
		// Queue-depth backpressure: the request is dispatched to the
		// device once a slot in one of the submission queues frees.
		// Latency is measured from dispatch (device-level latency, what
		// an SSD vendor reports and what the paper's bounded speedup
		// ratios imply); host-side queueing shows up in
		// throughput/makespan instead.
		dispatch, slot := queues.admit(arrival)
		start := dispatch + e.hostCmdNS + e.fwNS

		// TRIMs carry no payload: nothing crosses the host link and the
		// request contributes no throughput bytes.
		var hostXfer int64
		if req.Op != trace.Trim {
			hostXfer = int64(float64(req.Bytes()) / e.hostBps * 1e9)
			totalBytes += req.Bytes()
		}

		// Split into logical pages.
		firstLP, nPages := e.ftl.pageSpan(req.LBA, req.Sectors)
		if req.Op == trace.Trim {
			e.userTrims++
			if z := e.ftl.zns; z != nil {
				z.noteTrim(firstLP, nPages)
			}
		}

		done := start
		for k := int64(0); k < nPages; k++ {
			lp := (firstLP + k) % e.ftl.logicalPages
			var t int64
			switch req.Op {
			case trace.Read:
				t = e.readPage(lp, start)
			case trace.Trim:
				t = e.trimPage(lp, start)
			default:
				t = e.writePage(lp, start, req.Stream)
			}
			if t > done {
				done = t
			}
		}
		// The host link is a shared resource: the request's payload
		// serializes over PCIe/SATA after the flash work completes.
		xferBegin := done
		if e.hostFree > xferBegin {
			xferBegin = e.hostFree
		}
		e.hostFree = xferBegin + hostXfer
		done = xferBegin + hostXfer
		queues.complete(slot, done)
		lat := done - dispatch
		latSum += lat
		count++
		e.latHist.Record(lat)
		e.reqHist.Record(lat)
		if done > lastCompletion {
			lastCompletion = done
		}
	}
	if err := src.Err(); err != nil {
		return nil, fmt.Errorf("ssd: measured sweep: %w", err)
	}
	if err := e.ftl.fatal; err != nil {
		return nil, fmt.Errorf("%w (after %d measured requests)", err, count)
	}
	if count == 0 {
		return nil, fmt.Errorf("ssd: empty trace")
	}
	if ms != nil {
		e.mergedRequests = ms.merged
	}

	return e.buildResult(count, latSum, totalBytes, firstArrival, lastCompletion), nil
}

// readPage returns the completion time of a logical-page read started at
// t (ns).
func (e *engine) readPage(lp, t int64) int64 {
	if e.warming {
		e.mappingAccess(lp, t, false)
		return t
	}
	// Data-cache hit?
	if e.cache.read(lp) {
		e.cacheHits++
		e.dramAccesses++
		return t + e.dramNS
	}
	e.cacheMisses++

	// Mapping lookup through the CMT.
	t = e.mappingAccess(lp, t, false)

	pl := e.ftl.lookup(lp)
	done := e.flashRead(pl, t)
	e.ftl.userReads++
	if e.p.ReadCacheEnabled {
		if victim, dirtyEvict := e.cache.insert(lp, false); dirtyEvict {
			e.flushDirty(victim, done)
		}
	}
	return done
}

// writePage returns the completion time of a logical-page write started
// at t (ns). stream is the host's multi-stream tag (ignored by other
// interface models).
func (e *engine) writePage(lp, t int64, stream uint32) int64 {
	e.ftl.noteStream(lp, stream)
	if e.warming {
		e.mappingAccess(lp, t, true)
		if z := e.ftl.zns; z != nil {
			z.noteWrite(lp)
		}
		e.ftl.placePage(lp, e.ftl.laneFor(lp))
		return t
	}
	t = e.mappingAccess(lp, t, true)
	if z := e.ftl.zns; z != nil {
		// Zone-append serialization: writes to one zone are ordered
		// through its append point (one DRAM pass each), and a write below
		// the zone write pointer pays a read-modify-reclaim penalty — the
		// cost a ZNS host incurs for violating the sequential-write rule.
		zi := z.zoneOf(lp)
		if e.zoneFree[zi] > t {
			t = e.zoneFree[zi]
		}
		e.zoneFree[zi] = t + e.dramNS
		if z.noteWrite(lp) {
			t += e.progNS
		}
	}
	e.dramAccesses++
	victim, dirtyEvict := e.cache.insert(lp, true)
	done := t + e.dramNS
	if dirtyEvict {
		// The evicted page must be programmed to flash; the new write
		// waits for the eviction's bus slot (cache backpressure).
		busStart := e.flushDirty(victim, t)
		if busStart+e.dramNS > done {
			done = busStart + e.dramNS
		}
	}
	// Proactive write-back: above the WriteBufferFlushPct threshold the
	// controller flushes dirty lines in the background (charged to the
	// flash timelines, not to this request), keeping eviction stalls off
	// the critical path.
	if e.p.WriteBufferFlushPct > 0 {
		for e.cache.dirtyFraction() > e.p.WriteBufferFlushPct/100 {
			victim, ok := e.cache.flushOldestDirty()
			if !ok {
				break
			}
			e.flushDirty(victim, t)
			e.proactiveFlushes++
		}
	}
	return done
}

// trimPage applies a TRIM to one logical page: the mapping update is a
// CMT write (a genuinely dirty mapping entry), any cached copy is
// dropped without write-back, and the physical slot is staled so GC
// gets the reclaim credit. No flash data moves — the only time charged
// is the mapping access itself.
func (e *engine) trimPage(lp, t int64) int64 {
	if e.warming {
		e.mappingAccess(lp, t, true)
		e.ftl.trimPage(lp)
		return t
	}
	t = e.mappingAccess(lp, t, true)
	e.cache.invalidate(lp)
	e.ftl.trimPage(lp)
	return t
}

// flushDirty programs one dirty cache page to flash, charging GC if the
// allocation triggers it. It returns the time the page left DRAM (the
// channel-transfer start), which is when its cache slot is reusable.
func (e *engine) flushDirty(lp, t int64) (busStart int64) {
	pl, gcMoves, gcErases := e.ftl.placePage(lp, e.ftl.laneFor(lp))
	e.ftl.userPrograms++
	busStart = e.flashProgram(pl, t)
	e.chargeGC(pl, gcMoves, gcErases, t)
	return busStart
}

// mappingAccess models the CMT: a miss reads the mapping page from
// flash; a dirty eviction programs one back.
func (e *engine) mappingAccess(lp, t int64, write bool) int64 {
	miss, dirtyEvict := e.cmt.access(lp, write)
	if !miss {
		e.cmtHits++
		return t
	}
	e.cmtMisses++
	e.ftl.mappingReads++
	// The mapping page lives on a deterministic plane.
	pl := e.ftl.lookup(lp)
	t = e.flashRead(pl, t)
	if dirtyEvict {
		e.ftl.mappingWrites++
		e.flashProgram(pl, t) // asynchronous write-back occupies resources
	}
	return t
}

// flashRead charges one page read on plane pl starting no earlier than t
// and returns its completion time (after the channel transfer and ECC).
func (e *engine) flashRead(pl planeID, t int64) int64 {
	fp := &e.ftl.planes[pl]
	begin := t
	if fp.nextFree > begin {
		wait := fp.nextFree - begin
		// Out-of-order transaction scheduling: a read can bypass
		// *queued* (not yet started) programs, so its wait is bounded by
		// the one in-flight operation rather than the whole backlog.
		if e.p.TransactionSchedOOO && wait > e.progNS {
			wait = e.progNS
			fp.nextFree += e.readNS // the bypassed work still happens
		}
		if e.p.SuspendEnabled && wait > e.p.SuspendProgram.Nanoseconds() {
			// Program/erase suspension bounds the read's wait further;
			// the suspended operation resumes afterwards.
			wait = e.p.SuspendProgram.Nanoseconds()
			fp.nextFree += e.readNS
		}
		begin += wait
	}
	cellDone := begin + e.readNS
	var softDecode int64
	if fa := e.ftl.faults; fa != nil && !e.warming {
		// Stepped read-retry: each retry re-senses the page at a shifted
		// read voltage, re-occupying the plane; an exhausted ladder falls
		// back to an ECC soft-decode pass charged after the transfer.
		if steps := fa.readRetrySteps(e.p.ReadRetryLimit); steps > 0 {
			cellDone += int64(steps) * e.readNS
			fa.readRetries += int64(steps)
			if steps >= e.p.ReadRetryLimit {
				fa.eccSoftDecodes++
				softDecode = eccSoftDecodeMult * e.eccNS
			}
		}
	}
	fp.nextFree = cellDone

	ch := e.ftl.alloc.channelOf(pl)
	xferBegin := cellDone
	if e.channelFree[ch] > xferBegin {
		xferBegin = e.channelFree[ch]
		e.stallHist.Record(xferBegin - cellDone)
	}
	e.channelFree[ch] = xferBegin + e.xferNS
	e.channelBusyNS += e.xferNS
	return xferBegin + e.xferNS + e.eccNS + softDecode
}

// flashProgram charges one page program on plane pl (bus transfer first,
// then the cell program). It returns the bus-transfer start time.
func (e *engine) flashProgram(pl planeID, t int64) (busStart int64) {
	ch := e.ftl.alloc.channelOf(pl)
	busStart = t
	if e.channelFree[ch] > busStart {
		busStart = e.channelFree[ch]
		e.stallHist.Record(busStart - t)
	}
	e.channelFree[ch] = busStart + e.xferNS
	e.channelBusyNS += e.xferNS

	fp := &e.ftl.planes[pl]
	cellBegin := busStart + e.xferNS
	if fp.nextFree > cellBegin {
		cellBegin = fp.nextFree
	}
	fp.nextFree = cellBegin + e.progNS
	return busStart
}

// chargeGC adds the time cost of GC activity to the plane (and channel,
// unless copyback keeps moves on-chip). GC work that could have run
// during the plane's preceding idle gap is absorbed — real controllers
// collect garbage in the background, so only the portion that spills
// into foreground time delays requests. t is the trigger time.
func (e *engine) chargeGC(pl planeID, moves, erases int32, t int64) {
	if moves == 0 && erases == 0 {
		return
	}
	fp := &e.ftl.planes[pl]
	per := e.readNS + e.progNS
	if !e.p.CopybackEnabled {
		per += 2 * e.xferNS
		ch := e.ftl.alloc.channelOf(pl)
		e.channelFree[ch] += int64(moves) * 2 * e.xferNS
		e.channelBusyNS += int64(moves) * 2 * e.xferNS
	}
	busy := int64(moves)*per + int64(erases)*e.eraseNS
	if idle := t - fp.nextFree; idle > 0 {
		if idle >= busy {
			busy = 0
		} else {
			busy -= idle
		}
	}
	// The foreground spill (post-idle-absorption) is the GC pause a
	// request actually observes; absorbed background GC records as 0.
	e.gcHist.Record(busy)
	fp.nextFree += busy
}

func (e *engine) buildResult(count, latSum int64, totalBytes uint64, firstArrival, lastCompletion int64) *Result {
	r := &Result{Requests: int(count)}
	r.AvgLatency = time.Duration(latSum / count)
	r.P50Latency = time.Duration(e.latHist.Quantile(0.50))
	r.P95Latency = time.Duration(e.latHist.Quantile(0.95))
	r.P99Latency = time.Duration(e.latHist.Quantile(0.99))
	r.P999Latency = time.Duration(e.latHist.Quantile(0.999))
	r.LatencyHistogram = e.latHist.Snapshot()

	// A single-request trace (or one whose arrivals all coincide before a
	// shared completion) can yield lastCompletion == firstArrival, and a
	// dispatch gated far past the final completion can even drive the
	// difference negative. Rates divided by such a makespan were Inf/NaN;
	// fall back to the total device-busy time (the latency sum) so IOPS,
	// throughput and average power stay finite and meaningful.
	makespan := lastCompletion - firstArrival
	if makespan <= 0 {
		makespan = latSum
		if makespan <= 0 {
			makespan = 1
		}
	}
	r.Makespan = time.Duration(makespan)
	r.ThroughputBps = float64(totalBytes) / (float64(makespan) / 1e9)
	r.IOPS = float64(count) / (float64(makespan) / 1e9)

	f := e.ftl
	r.UserReads, r.UserPrograms = f.userReads, f.userPrograms
	r.GCReads, r.GCPrograms = f.gcReads, f.gcPrograms
	r.Erases = f.erases
	r.MappingReads, r.MappingWrites = f.mappingReads, f.mappingWrites
	r.CacheHits, r.CacheMisses = e.cacheHits, e.cacheMisses
	r.CMTHits, r.CMTMisses = e.cmtHits, e.cmtMisses
	for i := range f.planes {
		r.GCRuns += f.planes[i].gcRuns
		r.WearLevelSwaps += f.planes[i].wlSwaps
	}
	r.MergedRequests = e.mergedRequests
	r.ProactiveFlushes = e.proactiveFlushes
	r.UserTrims = e.userTrims
	r.TrimmedPages = f.trimmedPages
	if f.zns != nil {
		r.WPViolations = f.zns.violations
		r.ZoneResets = f.zns.resets
	}
	if fa := f.faults; fa != nil {
		r.ProgramFailures = fa.programFailures
		r.EraseFailures = fa.eraseFailures
		r.ReadRetries = fa.readRetries
		r.ECCSoftDecodes = fa.eccSoftDecodes
		r.RetiredBlocks = fa.retiredBlocks
		r.FactoryBadBlocks = fa.factoryBadBlocks
	}
	r.ChannelUtilization = float64(e.channelBusyNS) / (float64(makespan) * float64(e.p.Channels))
	if f.userPrograms > 0 {
		r.WriteAmplification = float64(f.userPrograms+f.gcPrograms) / float64(f.userPrograms)
	} else {
		r.WriteAmplification = 1
	}

	r.Wear = e.wear(makespan)
	r.EnergyJoules = e.energy(r, makespan)
	r.AvgPowerWatts = r.EnergyJoules / (float64(makespan) / 1e9)
	return r
}
