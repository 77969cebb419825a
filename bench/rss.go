package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// rssInterval is how often sampleRSS reads the resident set.
const rssInterval = 10 * time.Millisecond

// sampleRSS reads the process's resident set every rssInterval until the
// returned stop is called, which returns the samples in MB.
//
// The memory metric is the 90th percentile of these samples, not the
// peak: in a process that allocates as fast as the array workloads, the
// peak catches one collection cycle's rare overshoot and varied by a third
// between identical runs, while the level the resident set stays under 90%
// of the time repeated within a few percent.
func sampleRSS() (stop func() ([]float64, error)) {
	quit := make(chan struct{})
	type result struct {
		mb  []float64
		err error
	}
	done := make(chan result, 1)
	go func() {
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		var mb []float64
		for {
			v, err := residentMB()
			if err != nil {
				done <- result{err: err}
				return
			}
			mb = append(mb, v)
			select {
			case <-quit:
				done <- result{mb: mb}
				return
			case <-tick.C:
			}
		}
	}()
	return func() ([]float64, error) {
		close(quit)
		r := <-done
		return r.mb, r.err
	}
}

// residentMB reads the resident set from /proc/self/statm (Linux).
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0, fmt.Errorf("resident set: malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6, nil
}
