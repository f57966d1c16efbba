package ssd

import (
	"container/list"
	"fmt"
)

// targetSimPages caps the number of physical flash pages the simulator
// materializes. Real devices hold tens of millions of pages; simulating
// each would dominate memory and time inside the tuning loop, so — like
// other fast SSD models — we simulate a proportionally scaled device:
// the parallelism (channels × chips × dies × planes), page size, over-
// provisioning ratio and occupancy fraction are preserved exactly, while
// blocks-per-plane (and, in extreme layouts, pages-per-block) are scaled
// down. GC pressure depends on the *ratios*, which scaling preserves.
const targetSimPages = 1 << 20

// unmapped marks a logical page with no physical location.
const unmapped = int64(-1)

// ppa packs a physical page address: plane(16) | block(24) | slot(24).
func packPPA(plane planeID, block, slot int32) int64 {
	return int64(plane)<<48 | int64(block)<<24 | int64(slot)
}

func unpackPPA(v int64) (plane planeID, block, slot int32) {
	return planeID(uint64(v) >> 48), int32(uint64(v)>>24) & 0xFFFFFF, int32(v) & 0xFFFFFF
}

// flashBlock is one erase unit.
type flashBlock struct {
	pages      []int32 // logical page per slot; -1 = free-or-stale
	valid      int32
	writePtr   int32
	eraseCount int32
	allocSeq   int64 // allocation order, for FIFO GC
	lane       int32 // write lane the block was activated on
	failCount  int32 // cumulative program failures (fault injection)
	retired    bool  // bad block: factory-marked or grown defect
}

func (b *flashBlock) full(pagesPerBlock int32) bool { return b.writePtr >= pagesPerBlock }

// flashPlane is the unit of operation parallelism in the model.
type flashPlane struct {
	blocks []flashBlock
	// actives holds one open (being-written) block per write lane; -1
	// marks a lane that has not been activated yet. Conventional devices
	// have exactly one lane, so actives[0] plays the role the old scalar
	// active field did; multi-stream and ZNS devices fan host writes out
	// over several lanes (see hostifc.go).
	actives   []int32
	freeList  []int32
	nextFree  int64 // ns timestamp when the plane is idle again
	allocSeq  int64
	minErase  int32
	maxErase  int32
	gcRuns    int
	wlSwaps   int
	moveCount int64
}

// isActive reports whether block b is an open write block on any lane.
func (fp *flashPlane) isActive(b int32) bool {
	for _, a := range fp.actives {
		if a == b {
			return true
		}
	}
	return false
}

// ftl holds the page-mapped flash translation layer state. The three
// policy seams — plane allocation, GC victim selection and (in
// dataCache) cache replacement — are interfaces instantiated from the
// policy registry, so the FTL mechanics stay policy-agnostic.
type ftl struct {
	p      *DeviceParams
	alloc  *allocator
	gcPick gcVictimPolicy

	// Scaled geometry.
	blocksPerPlane int32
	pagesPerBlock  int32
	logicalPages   int64
	sectorsPerPage int64
	// capScale is realPhysicalPages / simulatedPhysicalPages. LBAs are
	// divided by it (preserving the workload's span *fraction* and
	// locality structure on the scaled device) and the DRAM cache / CMT
	// entry counts are divided by it (preserving coverage ratios).
	capScale int64

	planes  []flashPlane
	mapping []int64 // logical page -> packed PPA
	stripe  uint64  // write-striping counter

	gcMinFree int32

	// Host-interface model state (hostifc.go). lanes is the per-plane
	// write-lane count (1 for conventional); streamOf records the last
	// host stream tag per logical page (multi-stream only); zns holds the
	// zone write pointers (ZNS only).
	lanes        int
	streamOf     []uint8
	zns          *znsState
	trimmedPages int64 // mapped pages invalidated by host TRIM

	// faults is the seeded fault-injection state (faults.go); nil when
	// the device's FaultProfile is disabled, so fault-free runs take no
	// extra branches with observable effects.
	faults *faultState
	// fatal is the sticky unrecoverable device error (ErrOutOfSpace);
	// once set the engine stops issuing work and surfaces it through
	// the Run/RunSource error return.
	fatal error

	// Counters for metrics/energy.
	userReads, userPrograms     int64
	gcReads, gcPrograms         int64
	erases                      int64
	mappingReads, mappingWrites int64
}

// newFTL builds the scaled FTL for params p and warms it up: the first
// occupancy fraction of the logical pages is written in stripe order —
// the paper's "warm up the SSD simulator ... occupy at least 50% of the
// storage capacity". A fault-free device is written in closed form, a
// block at a time (fillBlocks); a device with fault state takes the
// per-page path (prefillPages), whose defects and RNG draws change where
// pages land.
func newFTL(p *DeviceParams, occupancy float64) (*ftl, error) {
	planes := p.TotalPlanes()
	bpp, ppb := scaleGeometry(p, planes)

	f := &ftl{
		p:              p,
		alloc:          newAllocator(p),
		gcPick:         newGCVictimPolicy(p),
		blocksPerPlane: bpp,
		pagesPerBlock:  ppb,
		sectorsPerPage: int64(p.PageSizeBytes / 512),
	}
	totalPhys := int64(planes) * int64(bpp) * int64(ppb)
	realPhys := int64(planes) * int64(p.BlocksPerPlane) * int64(p.PagesPerBlock)
	f.capScale = realPhys / totalPhys
	if f.capScale < 1 {
		f.capScale = 1
	}
	f.logicalPages = int64(float64(totalPhys) * (1 - p.OverprovisionRatio))
	if f.logicalPages < 1 {
		return nil, fmt.Errorf("ssd: over-provisioning leaves no logical space")
	}
	f.gcMinFree = int32(float64(bpp) * p.GCThresholdPct / 100)
	if f.gcMinFree < 1 {
		f.gcMinFree = 1
	}
	if f.gcMinFree >= bpp-1 {
		f.gcMinFree = bpp - 2
	}

	f.lanes = laneCount(p, bpp)
	switch p.HostIfcModel {
	case IfcMultiStream:
		f.streamOf = make([]uint8, f.logicalPages)
	case IfcZNS:
		f.zns = newZNSState(p, f.logicalPages, f.capScale, ppb, f.lanes)
	}

	f.planes = make([]flashPlane, planes)
	for i := range f.planes {
		pl := &f.planes[i]
		pl.blocks = make([]flashBlock, bpp)
		pl.freeList = make([]int32, 0, bpp)
		for b := int32(bpp - 1); b >= 1; b-- {
			pl.freeList = append(pl.freeList, b)
		}
		// Lane 0 opens block 0 immediately (matching the historical single
		// active block; fillBlocks gives it its pages); further lanes
		// activate lazily on first use so unused lanes never consume free
		// blocks.
		pl.actives = make([]int32, f.lanes)
		for l := 1; l < f.lanes; l++ {
			pl.actives[l] = -1
		}
	}
	f.mapping = make([]int64, f.logicalPages)

	n := int64(float64(f.logicalPages) * occupancy)
	if !p.Faults.Enabled() && f.fillBlocks(n) {
		return f, nil
	}
	f.fillBlocks(0)
	if p.Faults.Enabled() {
		if err := f.initFaults(p, planes); err != nil {
			return nil, err
		}
	}
	f.prefillPages(n)
	if f.fatal != nil {
		return nil, fmt.Errorf("%w (during prefill)", f.fatal)
	}
	return f, nil
}

// fillBlocks writes logical pages [0, n) of a fresh, fault-free FTL in
// closed form, leaving exactly the state prefillPages(n) leaves; n = 0
// builds the empty device. It reports false, changing nothing, when the
// pages do not fit (the per-page path then raises ErrOutOfSpace).
//
// Why it is exact: prefill is the FTL's first write, so stripe runs
// 0…n-1 and stripe position i of every period of len(planes) stripes
// lands on plane alloc.stripe[i]. That plane's j-th page is logical page
// i + j·planes, and it goes to block j/ppb, slot j%ppb, because blocks
// open in order: block 0 is pre-opened and the free list pops 1, 2, ….
// Opening is lazy, so a plane whose last block filled exactly keeps it
// active. Every full block is fully valid, so every victim policy
// refuses it and the GC that placePage triggers frees nothing.
//
// Logical pages are walked in chunks of planes·ppb, each exactly one
// block (block c for chunk c) on every plane, so every write stays
// inside one small window. A chunk writes its blocks' pages plane by
// plane and then its mapping in logical order: both are sequential,
// where one interleaved pass would stride one of them by a (usually
// power-of-two) distance that thrashes the cache and doubles the cost.
// The pages of every block that opens are cut from one slab; blocks
// that never open get none.
func (f *ftl) fillBlocks(n int64) bool {
	planes, ppb := int64(len(f.planes)), int64(f.pagesPerBlock)
	pagesAt := func(i int64) int64 { // pages landing on stripe position i
		if n <= i {
			return 0
		}
		return (n - i + planes - 1) / planes
	}
	blocksAt := func(i int64) int64 { return max(1, (pagesAt(i)+ppb-1)/ppb) }
	chunks := blocksAt(0) // stripe position 0 gets the most pages
	if chunks > int64(f.blocksPerPlane) {
		return false
	}
	var slots int64
	for i := int64(0); i < planes; i++ {
		slots += blocksAt(i) * ppb
	}
	slab := make([]int32, slots)
	for c := int64(0); c < chunks; c++ {
		base := c * planes * ppb
		for i, pl := range f.alloc.stripe {
			fp := &f.planes[pl]
			left := pagesAt(int64(i)) - c*ppb
			if c > 0 {
				if left <= 0 {
					continue // block c never opens on this plane
				}
				fp.freeList = fp.freeList[:len(fp.freeList)-1]
				fp.actives[0] = int32(c)
				fp.allocSeq = c
			}
			blk := &fp.blocks[c]
			blk.pages, slab = slab[:ppb:ppb], slab[ppb:]
			w := min(max(left, 0), ppb)
			for slot, lp := int64(0), base+int64(i); slot < w; slot, lp = slot+1, lp+planes {
				blk.pages[slot] = int32(lp)
			}
			fillStale(blk.pages[w:])
			blk.writePtr, blk.valid, blk.allocSeq = int32(w), int32(w), c
		}
		// The chunk's mapping, in logical order: lp = base + slot·planes + i.
		lp := base
		for slot := int32(0); slot < int32(ppb) && lp < n; slot++ {
			for _, pl := range f.alloc.stripe {
				if lp == n {
					break
				}
				f.mapping[lp] = packPPA(pl, int32(c), slot)
				lp++
			}
		}
	}
	for lp := n; lp < f.logicalPages; lp++ {
		f.mapping[lp] = unmapped
	}
	f.stripe = uint64(n)
	return true
}

// initFaults seeds the fault RNG and applies the initialization-time
// fault population: failed dies (with plane remapping onto survivors)
// and factory-marked bad blocks (drawn from BadBlockPct, retired off
// the free lists). Draw order is fixed — dies first, then blocks in
// plane/block order — so a given (params, seed) pair always yields the
// same defect map.
func (f *ftl) initFaults(p *DeviceParams, planes int) error {
	fs := newFaultState(p)
	f.faults = fs

	if n := p.Faults.DieFailures; n > 0 {
		totalDies := p.Channels * p.ChipsPerChannel * p.DiesPerChip
		if n >= totalDies {
			return fmt.Errorf("ssd: fault profile fails all %d dies", totalDies)
		}
		dead := make([]bool, totalDies)
		for k := 0; k < n; k++ {
			d := int(fs.rng.next() % uint64(totalDies))
			for dead[d] {
				d = (d + 1) % totalDies
			}
			dead[d] = true
		}
		// planeIndex iterates planes fastest, so plane pl belongs to die
		// pl / PlanesPerDie.
		fs.deadPlane = make([]bool, planes)
		for pl := 0; pl < planes; pl++ {
			fs.deadPlane[pl] = dead[pl/p.PlanesPerDie]
		}
		fs.redirect = make([]planeID, planes)
		for pl := range fs.redirect {
			t := pl
			for fs.deadPlane[t] {
				t = (t + 1) % planes
			}
			fs.redirect[pl] = planeID(t)
		}
	}

	// Factory bad blocks: each non-active block is marked bad with
	// probability BadBlockPct/100, capped so every plane keeps enough
	// free blocks to operate (the cap only binds at absurd rates).
	if pct := p.BadBlockPct / 100; pct > 0 {
		for pi := range f.planes {
			fp := &f.planes[pi]
			maxBad := len(fp.freeList) - int(f.gcMinFree) - 2
			bad := 0
			for _, b := range fp.freeList {
				if bad >= maxBad {
					break
				}
				if fs.rng.float64() < pct {
					fp.blocks[b].retired = true
					fs.factoryBadBlocks++
					bad++
				}
			}
			if bad > 0 {
				live := fp.freeList[:0]
				for _, b := range fp.freeList {
					if !fp.blocks[b].retired {
						live = append(live, b)
					}
				}
				fp.freeList = live
			}
		}
	}
	return nil
}

func fillStale(s []int32) {
	for i := range s {
		s[i] = -1
	}
}

// scaleGeometry picks the simulated blocks-per-plane / pages-per-block.
func scaleGeometry(p *DeviceParams, planes int) (bpp, ppb int32) {
	bpp, ppb = int32(p.BlocksPerPlane), int32(p.PagesPerBlock)
	total := func() int64 { return int64(planes) * int64(bpp) * int64(ppb) }
	for total() > targetSimPages && bpp > 8 {
		bpp /= 2
	}
	for total() > 4*targetSimPages && ppb > 32 {
		ppb /= 2
	}
	return bpp, ppb
}

// logicalPage folds an LBA (in sectors) onto the simulated logical
// space: the real logical page index is divided by capScale (a linear
// shrink that keeps the workload's footprint the same *fraction* of the
// device and preserves hot/cold structure), then wrapped defensively.
func (f *ftl) logicalPage(lba uint64) int64 {
	return (int64(lba/uint64(f.sectorsPerPage)) / f.capScale) % f.logicalPages
}

// pageSpan returns the first folded logical page of a request and how
// many consecutive logical pages it touches (callers index page k as
// (firstLP + k) % logicalPages). The count is computed in unfolded page
// space, so a request whose folded range wraps past the end of the
// logical space is modeled page for page instead of collapsing to a
// single page; it is clamped to logicalPages because the modular space
// cannot hold more distinct pages than that.
func (f *ftl) pageSpan(lba uint64, sectors uint32) (firstLP, nPages int64) {
	end := lba + uint64(sectors)
	if sectors == 0 {
		end = lba + 1 // defensive: zero-length request touches its page
	}
	first := int64(lba/uint64(f.sectorsPerPage)) / f.capScale
	last := int64((end-1)/uint64(f.sectorsPerPage)) / f.capScale
	nPages = last - first + 1
	if nPages < 1 {
		nPages = 1
	}
	if nPages > f.logicalPages {
		nPages = f.logicalPages
	}
	return first % f.logicalPages, nPages
}

// prefillPages is the per-page warm-up: logical pages [0, n) written in
// order through placePage, without timing. Devices with fault state take
// it, because bad blocks reorder the free lists, dead dies redirect
// planes and every program draws the fault RNG.
func (f *ftl) prefillPages(n int64) {
	for lp := int64(0); lp < n; lp++ {
		f.placePage(lp, 0)
	}
	// Reset op counters: warm-up traffic is not part of the measurement.
	f.userPrograms, f.gcPrograms, f.gcReads, f.erases = 0, 0, 0, 0
	for i := range f.planes {
		f.planes[i].gcRuns = 0
		f.planes[i].moveCount = 0
	}
}

// placePage allocates a physical slot for lp on the given write lane,
// updates mapping and valid counters, and returns the plane it landed on
// together with the number of GC page-moves and erases that the
// allocation triggered (zero when no GC ran). Timing is the caller's
// job; lane selection (hostLane) is too.
func (f *ftl) placePage(lp int64, lane int32) (pl planeID, gcMoves, gcErases int32) {
	if f.fatal != nil {
		return 0, 0, 0 // device wedged; engine surfaces f.fatal
	}
	pl = f.redirectPlane(f.alloc.planeAt(f.stripe))
	f.stripe++
	fp := &f.planes[pl]

	// Invalidate the previous location.
	if old := f.mapping[lp]; old != unmapped {
		opl, ob, oslot := unpackPPA(old)
		blk := &f.planes[opl].blocks[ob]
		if blk.pages[oslot] == int32(lp) {
			blk.pages[oslot] = -1
			blk.valid--
		}
	}

	ab := fp.actives[lane]
	if ab < 0 || fp.blocks[ab].full(f.pagesPerBlock) {
		f.advanceActive(fp, pl, lane)
		if f.fatal != nil {
			f.mapping[lp] = unmapped
			return pl, 0, 0
		}
		ab = fp.actives[lane]
	}
	blk := &fp.blocks[ab]
	if f.faults != nil {
		// Program failures: a failed program leaves its slot unusable
		// until the block is erased (counted against the block's grown-
		// defect budget); the controller retries on the next slot.
		for f.faults.programFails() {
			blk.pages[blk.writePtr] = -1
			blk.writePtr++
			blk.failCount++
			f.faults.programFailures++
			if blk.full(f.pagesPerBlock) {
				f.advanceActive(fp, pl, lane)
				if f.fatal != nil {
					f.mapping[lp] = unmapped
					return pl, 0, 0
				}
				blk = &fp.blocks[fp.actives[lane]]
			}
		}
	}
	slot := blk.writePtr
	blk.writePtr++
	blk.pages[slot] = int32(lp)
	blk.valid++
	f.mapping[lp] = packPPA(pl, fp.actives[lane], slot)

	if int32(len(fp.freeList)) < f.gcMinFree {
		gcMoves, gcErases = f.collect(fp, pl)
	}
	return pl, gcMoves, gcErases
}

// advanceActive opens a fresh free block as the lane's active block on
// plane pl (fp is &f.planes[pl]).
func (f *ftl) advanceActive(fp *flashPlane, pl planeID, lane int32) {
	if len(fp.freeList) == 0 {
		// Emergency GC: free at least one block synchronously.
		f.collect(fp, pl)
		if len(fp.freeList) == 0 {
			// Over-provisioning too small, or fault-driven retirement
			// consumed it. Sticky typed error, not a panic: the engine
			// checks f.fatal at the next request boundary.
			f.fatal = ErrOutOfSpace
			return
		}
	}
	nb := fp.freeList[len(fp.freeList)-1]
	fp.freeList = fp.freeList[:len(fp.freeList)-1]
	fp.actives[lane] = nb
	blk := &fp.blocks[nb]
	if blk.pages == nil {
		blk.pages = make([]int32, f.pagesPerBlock)
	}
	fillStale(blk.pages)
	blk.writePtr = 0
	blk.valid = 0
	blk.lane = lane
	fp.allocSeq++
	blk.allocSeq = fp.allocSeq
}

// collect reclaims blocks on the plane until the free list is healthy.
// It returns the number of valid-page moves and erases performed so the
// engine can charge their time and energy.
func (f *ftl) collect(fp *flashPlane, pl planeID) (moves, erasesDone int32) {
	// Progress guard: a plane whose blocks are all (nearly) fully valid
	// cannot be compacted further — each evacuation consumes as much
	// space as the erase frees. Bound the rounds to avoid livelock.
	maxRounds := 2 * int(f.blocksPerPlane)
	for round := 0; int32(len(fp.freeList)) < f.gcMinFree && round < maxRounds; round++ {
		victim := f.pickVictim(fp)
		if victim < 0 {
			break
		}
		blk := &fp.blocks[victim]
		// Move surviving pages into the victim lane's active block:
		// evacuating onto the same lane keeps stream/zone isolation (GC
		// never mixes lanes in one block), and with a single lane it is
		// exactly the historical behavior.
		lane := blk.lane
		for slot := int32(0); slot < blk.writePtr; slot++ {
			lp := blk.pages[slot]
			if lp < 0 {
				continue
			}
			if f.mapping[lp] != packPPA(pl, victim, slot) {
				continue // stale
			}
			dst := &fp.blocks[fp.actives[lane]]
			if dst.full(f.pagesPerBlock) {
				// The active block filled during GC; grab a free block
				// directly (one is guaranteed: we only erase after moving).
				if len(fp.freeList) == 0 {
					// Cannot make progress; leave remaining pages.
					break
				}
				f.advanceActive(fp, pl, lane)
				dst = &fp.blocks[fp.actives[lane]]
			}
			s := dst.writePtr
			dst.writePtr++
			dst.pages[s] = lp
			dst.valid++
			f.mapping[lp] = packPPA(pl, fp.actives[lane], s)
			blk.pages[slot] = -1
			blk.valid--
			moves++
		}
		if blk.valid > 0 {
			// Could not fully evacuate; give up to avoid livelock.
			break
		}
		if f.faults != nil && f.faults.retireAtErase(blk) {
			// Bad-block retirement: the erase failed (or the block's
			// grown-defect budget ran out), so the block leaves service
			// instead of rejoining the free list — shrinking the plane's
			// effective over-provisioning. It stays permanently "full"
			// and is skipped by every victim policy via the retired flag.
			blk.retired = true
			blk.writePtr = f.pagesPerBlock
			blk.valid = 0
			f.faults.retiredBlocks++
			fp.gcRuns++
			continue
		}
		// Erase.
		blk.writePtr = 0
		blk.valid = 0
		blk.eraseCount++
		if blk.eraseCount > fp.maxErase {
			fp.maxErase = blk.eraseCount
		}
		fp.freeList = append(fp.freeList, victim)
		erasesDone++
		fp.gcRuns++
	}
	fp.moveCount += int64(moves)
	f.gcReads += int64(moves)
	f.gcPrograms += int64(moves)
	f.erases += int64(erasesDone)

	// Static wear leveling: when the erase-count spread exceeds the
	// threshold, swap a cold block with a hot one. Modeled as an extra
	// full-block migration charged like GC moves.
	if f.p.StaticWearLeveling && fp.maxErase-fp.minErase > int32(f.p.WearLevelingThresh) {
		fp.wlSwaps++
		fp.minErase = fp.maxErase - int32(f.p.WearLevelingThresh)/2
		moves += f.pagesPerBlock
		f.gcReads += int64(f.pagesPerBlock)
		f.gcPrograms += int64(f.pagesPerBlock)
		erasesDone++
		f.erases++
	}
	return moves, erasesDone
}

// noteStream records the host stream tag of a written logical page
// (multi-stream model only; a no-op elsewhere). The tag is remembered
// because the actual flash program may happen much later, at cache
// eviction, and must still land on the stream's lane.
func (f *ftl) noteStream(lp int64, stream uint32) {
	if f.streamOf != nil {
		f.streamOf[lp] = uint8(stream)
	}
}

// laneFor maps a logical page to its per-plane write lane under the
// configured host-interface model. Conventional devices have a single
// lane; multi-stream routes by the page's recorded stream tag; ZNS
// routes by the page's open-zone slot.
func (f *ftl) laneFor(lp int64) int32 {
	switch f.p.HostIfcModel {
	case IfcMultiStream:
		return int32(int(f.streamOf[lp]) % f.lanes)
	case IfcZNS:
		return f.zns.slotFor(f.zns.zoneOf(lp))
	}
	return 0
}

// trimPage drops lp's mapping and stales its physical slot — the GC
// credit of a TRIM: the page no longer needs to be moved at collection
// time. Reports whether lp was actually mapped.
func (f *ftl) trimPage(lp int64) bool {
	v := f.mapping[lp]
	if v == unmapped {
		return false
	}
	opl, ob, oslot := unpackPPA(v)
	blk := &f.planes[opl].blocks[ob]
	if blk.pages[oslot] == int32(lp) {
		blk.pages[oslot] = -1
		blk.valid--
	}
	f.mapping[lp] = unmapped
	f.trimmedPages++
	return true
}

// pickVictim selects a GC victim block index via the configured policy,
// or -1 when none qualifies.
func (f *ftl) pickVictim(fp *flashPlane) int32 {
	return f.gcPick.pickVictim(f, fp)
}

// lookup returns the plane that holds lp. Pages never written are given a
// deterministic pseudo-location so that reads of cold data still exercise
// the layout (they are spread exactly like striped writes would be).
func (f *ftl) lookup(lp int64) planeID {
	if v := f.mapping[lp]; v != unmapped {
		pl, _, _ := unpackPPA(v)
		return pl
	}
	return f.redirectPlane(f.alloc.planeAt(uint64(lp)))
}

// --- Cached mapping table (DFTL-style). ---

// cmt simulates the cached mapping table: an LRU of mapping regions.
// A miss costs a flash read of the mapping page (charged by the engine);
// a dirty eviction costs a mapping program.
type cmt struct {
	capacity int
	ll       *list.List
	entries  map[int64]*list.Element
	gran     int64
}

type cmtEntry struct {
	region int64
	dirty  bool
}

// newCMT sizes the cached mapping table; scale is the device capacity
// scale factor, so CMT coverage of the simulated space matches the real
// CMT's coverage of the real device.
func newCMT(p *DeviceParams, scale int64) *cmt {
	gran := int64(p.MappingGranularity)
	if gran < 1 {
		gran = 1
	}
	capEntries := int(p.CMTBytes / int64(p.CMTEntryBytes) / scale)
	if capEntries < 1 {
		capEntries = 1
	}
	return &cmt{capacity: capEntries, ll: list.New(), entries: make(map[int64]*list.Element), gran: gran}
}

// access touches the mapping region of lp. It reports whether the access
// missed and whether the resulting eviction wrote back a dirty entry.
func (c *cmt) access(lp int64, write bool) (miss, dirtyEvict bool) {
	region := lp / c.gran
	if el, ok := c.entries[region]; ok {
		c.ll.MoveToFront(el)
		if write {
			el.Value.(*cmtEntry).dirty = true
		}
		return false, false
	}
	miss = true
	if c.ll.Len() >= c.capacity {
		back := c.ll.Back()
		if back != nil {
			e := back.Value.(*cmtEntry)
			dirtyEvict = e.dirty
			delete(c.entries, e.region)
			c.ll.Remove(back)
		}
	}
	c.entries[region] = c.ll.PushFront(&cmtEntry{region: region, dirty: write})
	return miss, dirtyEvict
}

// The DRAM data cache and its pluggable replacement policies live in
// cachepolicy.go.
