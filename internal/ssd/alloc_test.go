package ssd

import (
	"testing"
	"testing/quick"
)

func TestAllocSchemeNames(t *testing.T) {
	for i := 0; i < NumAllocSchemes; i++ {
		s := AllocScheme(i)
		if !s.valid() {
			t.Fatalf("scheme %d invalid", i)
		}
		parsed, err := ParseAllocScheme(s.String())
		if err != nil {
			t.Fatalf("ParseAllocScheme(%s): %v", s, err)
		}
		if parsed != s {
			t.Fatalf("round trip %s -> %s", s, parsed)
		}
	}
	if AllocScheme(200).valid() {
		t.Fatal("200 should be invalid")
	}
	if _, err := ParseAllocScheme("XXXX"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestAllocatorCoversAllPlanes(t *testing.T) {
	p := DefaultParams()
	p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie = 4, 3, 2, 2
	for scheme := 0; scheme < NumAllocSchemes; scheme++ {
		p.PlaneAllocScheme = AllocScheme(scheme)
		a := newAllocator(&p)
		total := p.TotalPlanes()
		seen := make(map[planeID]bool)
		for c := uint64(0); c < uint64(total); c++ {
			pl := a.planeAt(c)
			if pl < 0 || int(pl) >= total {
				t.Fatalf("scheme %s: plane %d out of range", p.PlaneAllocScheme, pl)
			}
			seen[pl] = true
		}
		if len(seen) != total {
			t.Fatalf("scheme %s: one stripe cycle covered %d/%d planes", p.PlaneAllocScheme, len(seen), total)
		}
	}
}

// divModLocate is the stripe-counter decomposition the stripe table
// replaces: each axis's coordinate is (counter / stride) % dim, with
// strides taken in the scheme's axis priority.
func divModLocate(p *DeviceParams, counter uint64) (ch, chip, die, plane int) {
	dims := [4]int{p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie}
	var strides [4]int
	stride := 1
	for _, axis := range allocSchemeTable[p.PlaneAllocScheme].order {
		strides[axis] = stride
		stride *= dims[axis]
	}
	c := int(counter % uint64(stride))
	return (c / strides[0]) % dims[0], (c / strides[1]) % dims[1],
		(c / strides[2]) % dims[2], (c / strides[3]) % dims[3]
}

// TestStripeTableMatchesDivMod pins the odometer-built stripe table to
// the div/mod decomposition for every counter of a period (and a few
// beyond it), across every scheme and a non-power-of-two geometry.
func TestStripeTableMatchesDivMod(t *testing.T) {
	for _, g := range [][4]int{{4, 3, 2, 2}, {3, 5, 1, 3}, {8, 4, 2, 2}, {1, 1, 1, 1}} {
		p := DefaultParams()
		p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie = g[0], g[1], g[2], g[3]
		for scheme := 0; scheme < NumAllocSchemes; scheme++ {
			p.PlaneAllocScheme = AllocScheme(scheme)
			a := newAllocator(&p)
			total := uint64(p.TotalPlanes())
			if uint64(len(a.stripe)) != total {
				t.Fatalf("%v/%s: table length %d, want %d", g, p.PlaneAllocScheme, len(a.stripe), total)
			}
			for c := uint64(0); c < 3*total; c++ {
				if got, want := a.planeAt(c), a.planeIndex(divModLocate(&p, c)); got != want {
					t.Fatalf("%v/%s: counter %d -> plane %d, want %d", g, p.PlaneAllocScheme, c, got, want)
				}
			}
		}
	}
}

func TestChannelFirstSchemeStripesChannels(t *testing.T) {
	p := DefaultParams()
	p.PlaneAllocScheme = AllocCWDP
	a := newAllocator(&p)
	// Consecutive counters must advance the channel first.
	for c := uint64(0); c < uint64(p.Channels); c++ {
		if ch := a.channelOf(a.planeAt(c)); ch != int(c) {
			t.Fatalf("CWDP: counter %d landed on channel %d", c, ch)
		}
	}
}

func TestChannelOf(t *testing.T) {
	f := func(chRaw, chipRaw, dieRaw, plRaw uint8) bool {
		p := DefaultParams()
		p.Channels, p.ChipsPerChannel = 1+int(chRaw%8), 1+int(chipRaw%4)
		p.DiesPerChip, p.PlanesPerDie = 1+int(dieRaw%4), 1+int(plRaw%4)
		a := newAllocator(&p)
		for ch := 0; ch < p.Channels; ch++ {
			for chip := 0; chip < p.ChipsPerChannel; chip++ {
				for die := 0; die < p.DiesPerChip; die++ {
					for pl := 0; pl < p.PlanesPerDie; pl++ {
						id := a.planeIndex(ch, chip, die, pl)
						if a.channelOf(id) != ch {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
