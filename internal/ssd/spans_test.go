package ssd

import (
	"fmt"
	"testing"

	"morpheus/internal/nvme"
	"morpheus/internal/trace"
)

// TestSpanDetailFormats holds every controller span detail, formatted at
// export, to the fmt.Sprintf expression the span site used to format when
// it recorded, at the extremes of each field, so no packing truncates.
func TestSpanDetailFormats(t *testing.T) {
	const (
		slba   = ^uint64(0)
		nlb    = ^uint32(0)
		id     = ^uint32(0)
		status = nvme.Status(0xffff)
		bytes  = 1<<40 + 3
	)
	for _, c := range []struct {
		d    trace.Detail
		want string
	}{
		{nvmeDetail(slba, nlb, status), fmt.Sprintf("slba=%d nlb=%d status=0x%x", uint64(slba), uint32(nlb), uint16(status))},
		{nvmeDetail(0, 1, nvme.StatusSuccess), fmt.Sprintf("slba=%d nlb=%d status=0x%x", 0, 1, uint16(nvme.StatusSuccess))},
		{parseDetail(id), fmt.Sprintf("instance=%d", uint32(id))},
		{missDetail(id, slba, nlb), fmt.Sprintf("instance=%d slba=%d nlb=%d", uint32(id), uint64(slba), uint32(nlb))},
		{hitDetail(id, slba, nlb, bytes), fmt.Sprintf("instance=%d slba=%d nlb=%d bytes=%d", uint32(id), uint64(slba), uint32(nlb), bytes)},
		{hitDetail(1, 2, 3, 4), fmt.Sprintf("instance=%d slba=%d nlb=%d bytes=%d", 1, 2, 3, 4)},
		{hitDetail(1<<31, 0, 1<<31, 0), fmt.Sprintf("instance=%d slba=%d nlb=%d bytes=%d", 1<<31, 0, 1<<31, 0)},
		{invalidateDetail(slba, nlb, 1<<40), fmt.Sprintf("slba=%d nlb=%d entries=%d", uint64(slba), uint32(nlb), 1<<40)},
		{storageAppDetail(id, 1<<40, 2.5), fmt.Sprintf("instance=%d chunk=%dB cycles=%.0f", uint32(id), 1<<40, 2.5)},
		{storageAppDetail(1, 8192, 3.5), fmt.Sprintf("instance=%d chunk=%dB cycles=%.0f", 1, 8192, 3.5)},
		{storageAppDetail(1, 0, 1234567.4999), fmt.Sprintf("instance=%d chunk=%dB cycles=%.0f", 1, 0, 1234567.4999)},
		{storageAppDetail(1, 0, 0.5), fmt.Sprintf("instance=%d chunk=%dB cycles=%.0f", 1, 0, 0.5)},
	} {
		if got := c.d.String(); got != c.want {
			t.Errorf("detail %+v = %q, want %q", c.d, got, c.want)
		}
	}
	for _, op := range []nvme.Opcode{nvme.OpRead, nvme.OpMRead, nvme.OpAdminIdentify, 0x7f} {
		if got, want := opName(op).String(), op.String(); got != want {
			t.Errorf("opcode %#x span name %q, want %q", uint8(op), got, want)
		}
	}
}
