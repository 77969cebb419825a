package pcie

import (
	"fmt"
	"testing"

	"morpheus/internal/units"
)

// TestDMADetails holds the dma-out/dma-in span details, formatted at
// export, to the fmt.Sprintf expressions the span sites used when they
// recorded, across units.Bytes' unit boundaries and for a window name
// that needs JSON escaping.
func TestDMADetails(t *testing.T) {
	f, _ := newFabric()
	plain, err := f.MapWindow(Window{Name: "dram", Base: 0, Size: 1 << 30, Endpoint: "host", Sink: NullSink})
	if err != nil {
		t.Fatal(err)
	}
	odd, err := f.MapWindow(Window{Name: "bar \"<0>\"\\ ", Base: 1 << 40, Size: 1 << 20, Endpoint: "gpu", Sink: NullSink})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*Window{plain, odd} {
		for _, n := range []units.Bytes{0, 1023, units.KiB, units.MiB - 1, units.MiB, 3 * units.GiB} {
			if got, want := dmaDetail(dmaOutKind, n, w).String(), fmt.Sprintf("%v -> %s", n, w.Name); got != want {
				t.Errorf("dma-out detail = %q, want %q", got, want)
			}
			if got, want := dmaDetail(dmaInKind, n, w).String(), fmt.Sprintf("%v <- %s", n, w.Name); got != want {
				t.Errorf("dma-in detail = %q, want %q", got, want)
			}
		}
	}
}
