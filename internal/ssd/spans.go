package ssd

import (
	"fmt"
	"math"

	"morpheus/internal/nvme"
	"morpheus/internal/trace"
)

// Trace tracks and span names of the controller, resolved once.
var (
	nvmeTrack     = trace.Intern("nvme")
	frontendTrack = trace.Intern("ssd.frontend")
	cacheTrack    = trace.Intern("ssd.cache")

	parseName      = trace.Intern("parse")
	missName       = trace.Intern("miss")
	hitName        = trace.Intern("hit")
	invalidateName = trace.Intern("invalidate")
	storageAppName = trace.Intern("storageapp")
)

// opNames holds the span name of every opcode the controller executes;
// any other opcode is interned when it is seen.
var opNames = func() (n [256]trace.Name) {
	for _, op := range []nvme.Opcode{nvme.OpFlush, nvme.OpWrite, nvme.OpRead,
		nvme.OpMInit, nvme.OpMRead, nvme.OpMWrite, nvme.OpMDeinit} {
		n[op] = trace.Intern(op.String())
	}
	return n
}()

func opName(op nvme.Opcode) trace.Name {
	if n := opNames[op]; n != 0 {
		return n
	}
	return trace.Intern(op.String())
}

// Span details, one kind per format. Unsigned fields ride as their bits;
// a cache hit packs its two 32-bit fields (instance, nlb) into one
// argument, and the StorageApp's cycle count rides as its float64 bits.
var (
	nvmeKind = trace.RegisterDetail(func(a [3]int64) string {
		return fmt.Sprintf("slba=%d nlb=%d status=0x%x", uint64(a[0]), uint32(a[1]), uint16(a[2]))
	})
	parseKind = trace.RegisterDetail(func(a [3]int64) string {
		return fmt.Sprintf("instance=%d", uint32(a[0]))
	})
	missKind = trace.RegisterDetail(func(a [3]int64) string {
		return fmt.Sprintf("instance=%d slba=%d nlb=%d", uint32(a[0]), uint64(a[1]), uint32(a[2]))
	})
	hitKind = trace.RegisterDetail(func(a [3]int64) string {
		return fmt.Sprintf("instance=%d slba=%d nlb=%d bytes=%d", uint32(a[0]>>32), uint64(a[1]), uint32(a[0]), a[2])
	})
	invalidateKind = trace.RegisterDetail(func(a [3]int64) string {
		return fmt.Sprintf("slba=%d nlb=%d entries=%d", uint64(a[0]), uint32(a[1]), a[2])
	})
	storageAppKind = trace.RegisterDetail(func(a [3]int64) string {
		return fmt.Sprintf("instance=%d chunk=%dB cycles=%.0f", uint32(a[0]), a[1], math.Float64frombits(uint64(a[2])))
	})
)

func detail(kind trace.DetailKind, a, b, c int64) trace.Detail {
	return trace.Detail{Kind: kind, Args: [3]int64{a, b, c}}
}

func nvmeDetail(slba uint64, nlb uint32, status nvme.Status) trace.Detail {
	return detail(nvmeKind, int64(slba), int64(nlb), int64(uint16(status)))
}

func parseDetail(instance uint32) trace.Detail {
	return detail(parseKind, int64(instance), 0, 0)
}

func missDetail(instance uint32, slba uint64, nlb uint32) trace.Detail {
	return detail(missKind, int64(instance), int64(slba), int64(nlb))
}

func hitDetail(instance uint32, slba uint64, nlb uint32, bytes int) trace.Detail {
	return detail(hitKind, int64(instance)<<32|int64(nlb), int64(slba), int64(bytes))
}

func invalidateDetail(slba uint64, nlb uint32, entries int) trace.Detail {
	return detail(invalidateKind, int64(slba), int64(nlb), int64(entries))
}

func storageAppDetail(instance uint32, chunk int, cycles float64) trace.Detail {
	return detail(storageAppKind, int64(instance), int64(chunk), int64(math.Float64bits(cycles)))
}
