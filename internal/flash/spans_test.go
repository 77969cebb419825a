package flash

import (
	"fmt"
	"testing"
)

// TestPPADetail holds the read/program span detail, formatted at export,
// to PPA.String, which the span sites used to call when they recorded,
// up to the largest geometry Validate accepts, so the packing never
// truncates a field.
func TestPPADetail(t *testing.T) {
	widest := Geometry{Channels: 1 << ppaChannelBits, DiesPerChannel: 1 << ppaDieBits,
		PlanesPerDie: 1 << ppaPlaneBits, BlocksPerPlane: 1 << ppaBlockBits, PagesPerBlock: 1 << ppaPageBits, PageSize: 4096}
	if err := widest.Validate(); err != nil {
		t.Fatalf("widest packable geometry rejected: %v", err)
	}
	for _, g := range []Geometry{widest, DefaultGeometry()} {
		last := PPA{g.Channels - 1, g.DiesPerChannel - 1, g.PlanesPerDie - 1, g.BlocksPerPlane - 1, g.PagesPerBlock - 1}
		for _, a := range []PPA{{}, last, {1, 0, 1, 0, 1}, {0, g.DiesPerChannel - 1, 0, g.BlocksPerPlane - 1, 0}} {
			if got, want := ppaDetail(a).String(), fmt.Sprintf("ppa(%d/%d/%d/%d/%d)", a.Channel, a.Die, a.Plane, a.Block, a.Page); got != want {
				t.Errorf("detail of %+v = %q, want %q", a, got, want)
			}
			if back := UnpackPPA(a.Pack()); back != a {
				t.Errorf("UnpackPPA(Pack(%+v)) = %+v", a, back)
			}
		}
	}
	// One past the packable range in any field is not a valid geometry.
	for i := range 5 {
		g := widest
		*[]*int{&g.Channels, &g.DiesPerChannel, &g.PlanesPerDie, &g.BlocksPerPlane, &g.PagesPerBlock}[i]++
		if g.Validate() == nil {
			t.Errorf("geometry %+v accepted beyond the packable range", g)
		}
	}
}
