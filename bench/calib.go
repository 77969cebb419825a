package main

import (
	"runtime"
	"sort"
	"strconv"
	"time"
)

// calRef is the calibration kernel's duration on the reference machine
// state. Host-time metrics are reported in reference seconds: seconds
// scaled by calRef over the kernel's median duration in the same run.
//
// The scaling is there because a shared 2-vCPU VM (Intel Xeon) changed
// speed by up to 1.7x over tens of minutes as other tenants came and went.
// CPU time moved as much as wall time, so the cause is contention inside
// the CPU, not lost time slices. Within one run the kernel slows down with
// the simulator, so the ratio of the two stays put.
const calRef = 100 * time.Millisecond

// calSink keeps the kernel's results live.
var calSink int

// calibrate times a fixed kernel built only from the standard library, so
// no change to the simulator can move it. Like the simulator, it allocates
// and zeroes buffers, copies bytes, formats and parses integers, fills a
// map and sorts.
func calibrate() time.Duration {
	runtime.GC()
	start := time.Now()
	h := uint64(1)
	for round := 0; round < 12; round++ {
		counts := map[uint64]int{}
		var keys []uint64
		var text []byte
		for i := 0; i < 20000; i++ {
			h = h*6364136223846793005 + 1442695040888963407
			text = strconv.AppendUint(text, h>>24, 10)
			text = append(text, ' ')
			counts[h>>50]++
			keys = append(keys, h>>40)
		}
		for off := 0; off < len(text); {
			end := off
			for text[end] != ' ' {
				end++
			}
			v, _ := strconv.ParseUint(string(text[off:end]), 10, 64)
			calSink += int(v & 1)
			off = end + 1
		}
		for i := 0; i < 8; i++ {
			buf := make([]byte, 256<<10)
			calSink += copy(buf, text)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		calSink += len(counts) + int(keys[len(keys)/2]&1)
	}
	return time.Since(start)
}
