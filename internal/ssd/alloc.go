package ssd

import "fmt"

// AllocScheme selects the plane-allocation (page striping) order — the
// priority in which the Channel (C), Way/chip (W), Die (D) and Plane (P)
// coordinates advance as consecutive pages are written. §3.2 of the
// paper models the scheme as a 16-way categorical parameter; we expose
// the 16 orderings whose first axis is Channel or Way (striping that
// starts at a die or plane within a single chip serializes the bus and is
// never selected in practice, matching the paper's 16-value list).
type AllocScheme uint8

// The 16 plane-allocation schemes. The name lists the axis priority,
// fastest-varying first.
const (
	AllocCWDP AllocScheme = iota
	AllocCWPD
	AllocCDWP
	AllocCDPW
	AllocCPWD
	AllocCPDW
	AllocWCDP
	AllocWCPD
	AllocWDCP
	AllocWDPC
	AllocWPCD
	AllocWPDC
	AllocCW // degenerate 2-axis orders: remaining axes in natural order
	AllocWC
	AllocCD
	AllocCP

	// NumAllocSchemes is the size of the categorical domain.
	NumAllocSchemes = 16
)

// allocSchemeTable is the single source of truth for the plane
// allocation domain: row order defines the wire value, and each row
// carries the axis priority its ordered allocator stripes with
// (0=Channel, 1=Way/chip, 2=Die, 3=Plane; fastest-varying first).
var allocSchemeTable = [NumAllocSchemes]struct {
	name  string
	order [4]int
}{
	AllocCWDP: {"CWDP", [4]int{0, 1, 2, 3}},
	AllocCWPD: {"CWPD", [4]int{0, 1, 3, 2}},
	AllocCDWP: {"CDWP", [4]int{0, 2, 1, 3}},
	AllocCDPW: {"CDPW", [4]int{0, 2, 3, 1}},
	AllocCPWD: {"CPWD", [4]int{0, 3, 1, 2}},
	AllocCPDW: {"CPDW", [4]int{0, 3, 2, 1}},
	AllocWCDP: {"WCDP", [4]int{1, 0, 2, 3}},
	AllocWCPD: {"WCPD", [4]int{1, 0, 3, 2}},
	AllocWDCP: {"WDCP", [4]int{1, 2, 0, 3}},
	AllocWDPC: {"WDPC", [4]int{1, 2, 3, 0}},
	AllocWPCD: {"WPCD", [4]int{1, 3, 0, 2}},
	AllocWPDC: {"WPDC", [4]int{1, 3, 2, 0}},
	AllocCW:   {"CW", [4]int{0, 1, 2, 3}}, // same expansion as CWDP
	AllocWC:   {"WC", [4]int{1, 0, 2, 3}},
	AllocCD:   {"CD", [4]int{0, 2, 1, 3}},
	AllocCP:   {"CP", [4]int{0, 3, 1, 2}},
}

var allocSchemes = func() *policyDomain {
	names := make([]string, len(allocSchemeTable))
	docs := make([]string, len(allocSchemeTable))
	for i, e := range allocSchemeTable {
		names[i] = e.name
	}
	return newPolicyDomain("plane allocation scheme", names, docs)
}()

func (a AllocScheme) valid() bool { return allocSchemes.valid(uint8(a)) }

// String returns the scheme's axis mnemonic.
func (a AllocScheme) String() string {
	if !a.valid() {
		return fmt.Sprintf("AllocScheme(%d)", uint8(a))
	}
	return allocSchemes.name(uint8(a))
}

// ParseAllocScheme resolves a mnemonic like "CWDP".
func ParseAllocScheme(s string) (AllocScheme, error) {
	v, err := allocSchemes.parse(s)
	return AllocScheme(v), err
}

// AllocSchemeNames returns the scheme mnemonics in value order.
func AllocSchemeNames() []string { return allocSchemes.allNames() }

// planeID flattens a (channel, chip, die, plane) coordinate.
type planeID int32

// allocator converts a monotonically increasing write-stripe counter into
// a plane following the scheme's axis priority. One period of the
// counter (the device's plane count) visits every plane exactly once, in
// the order the precomputed stripe table holds.
type allocator struct {
	dims [4]int // channel, chip, die, plane counts
	// stripe[c] is the plane that stripe counter c (mod len) lands on.
	stripe []planeID
}

// newAllocator builds the stripe table for the device's configured
// scheme; the caller validates p first. The table is filled with an
// odometer over the coordinates: the scheme's fastest axis advances on
// every step and carries into the next axis when it wraps.
func newAllocator(p *DeviceParams) *allocator {
	a := &allocator{dims: [4]int{p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie}}
	order := allocSchemeTable[p.PlaneAllocScheme].order
	a.stripe = make([]planeID, p.TotalPlanes())
	var coord [4]int
	for c := range a.stripe {
		a.stripe[c] = a.planeIndex(coord[0], coord[1], coord[2], coord[3])
		for _, axis := range order {
			if coord[axis]++; coord[axis] < a.dims[axis] {
				break
			}
			coord[axis] = 0
		}
	}
	return a
}

// planeAt maps a stripe counter to its plane.
func (a *allocator) planeAt(counter uint64) planeID {
	return a.stripe[counter%uint64(len(a.stripe))]
}

// planeIndex flattens coordinates into a dense plane index.
func (a *allocator) planeIndex(ch, chip, die, plane int) planeID {
	return planeID(((ch*a.dims[1]+chip)*a.dims[2]+die)*a.dims[3] + plane)
}

// channelOf recovers the channel from a dense plane index.
func (a *allocator) channelOf(p planeID) int {
	return int(p) / (a.dims[1] * a.dims[2] * a.dims[3])
}
