package core

import (
	"fmt"
	"testing"

	"morpheus/internal/nvme"
)

// TestHostSpanDetails holds the host-track span details, formatted at
// export, to the strings the span sites used to build when they recorded.
func TestHostSpanDetails(t *testing.T) {
	for _, op := range []nvme.Opcode{nvme.OpMRead, nvme.OpWrite, 0x7f} {
		for _, cid := range []uint16{0, 1, 0xffff} {
			if got, want := submitDetail(op, cid).String(), fmt.Sprintf("op=%s cid=%d", op, cid); got != want {
				t.Errorf("submit detail = %q, want %q", got, want)
			}
		}
	}
	if got := fallbackHost.String(); got != "path=host" {
		t.Errorf("host fallback detail = %q", got)
	}
	if got := fallbackReplica.String(); got != "path=replica" {
		t.Errorf("replica fallback detail = %q", got)
	}
}
