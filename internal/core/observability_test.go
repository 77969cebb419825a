package core

import (
	"strings"
	"testing"

	"morpheus/internal/serial"
	"morpheus/internal/trace"
)

// deviceTracks are the units whose trace events the observability
// acceptance bar counts as "device-side": everything below the driver.
func isDeviceTrack(track string) bool {
	for _, p := range []string{"nvme", "ssd.", "flash.", "ftl", "pcie."} {
		if track == strings.TrimSuffix(p, ".") || strings.HasPrefix(track, p) {
			return true
		}
	}
	return false
}

// TestSpanPropagationEndToEnd drives a Morpheus invocation and checks the
// causal chain: every device-side event must carry a parent span that
// resolves to a span the host driver allocated at submission.
func TestSpanPropagationEndToEnd(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<14, 3)
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	// Attach after staging, like the experiment harness: the trace starts
	// at the measurement boundary, so setup-time flash programs (which have
	// no causing host command) never appear.
	sys.ResetTimers()
	tr := sys.EnableTrace(0)
	if _, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f}); err != nil {
		t.Fatal(err)
	}

	submitted := map[trace.SpanID]bool{}
	for _, e := range tr.Events() {
		if e.Track.String() == "host" && e.Name.String() == "submit" {
			if e.Span == 0 {
				t.Fatal("host submission without a span ID")
			}
			submitted[e.Span] = true
		}
	}
	if len(submitted) == 0 {
		t.Fatal("no host submissions traced")
	}

	var device, resolvable int
	for _, e := range tr.Events() {
		if !isDeviceTrack(e.Track.String()) {
			continue
		}
		device++
		if submitted[e.Parent] {
			resolvable++
		} else {
			t.Logf("orphan event: track=%s name=%s span=%d parent=%d", e.Track, e.Name, e.Span, e.Parent)
		}
		if e.Span == 0 {
			t.Errorf("device event %s/%s has no span of its own", e.Track, e.Name)
		}
	}
	if device == 0 {
		t.Fatal("no device-side events traced")
	}
	if frac := float64(resolvable) / float64(device); frac < 0.95 {
		t.Fatalf("only %.1f%% of %d device events resolve to a host submission (need ≥95%%)",
			100*frac, device)
	}
}

// TestSpanResetBetweenCommands makes sure the per-command span set on the
// device models does not leak past Submit: events recorded outside a
// command (none should exist, but a stale span would show as a parent not
// in the submitted set) and spans from command N must not parent events
// of command N+1's flash reads.
func TestSpanDistinctAcrossCommands(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	tr := sys.EnableTrace(0)
	data, _ := testInput(1<<14, 4)
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	if _, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f}); err != nil {
		t.Fatal(err)
	}
	// Each nvme command event's span is unique, and its own children point
	// at the command that caused them, not an earlier one.
	nvmeSpans := map[trace.SpanID]bool{}
	for _, e := range tr.Events() {
		if e.Track.String() == "nvme" {
			if nvmeSpans[e.Span] {
				t.Fatalf("nvme span %d reused", e.Span)
			}
			nvmeSpans[e.Span] = true
		}
	}
	if len(nvmeSpans) < 2 {
		t.Fatalf("expected several nvme commands, saw %d", len(nvmeSpans))
	}
}

// TestLatencyMetricsRecorded checks the driver-side histograms and gauges
// after a Morpheus run: per-opcode latency distributions exist with sane
// quantiles, and the virtual-clock gauges sampled.
func TestLatencyMetricsRecorded(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<14, 5)
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	if _, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f}); err != nil {
		t.Fatal(err)
	}

	h := sys.Metrics.Histogram("nvme.MREAD.latency_ps")
	if h.Count() == 0 {
		t.Fatal("no MREAD latencies recorded")
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 <= 0 || p99 <= 0 {
		t.Fatalf("MREAD p50=%d p99=%d, want > 0", p50, p99)
	}
	if p50 > p99 || p99 > h.Max() {
		t.Fatalf("quantiles not monotone: p50=%d p99=%d max=%d", p50, p99, h.Max())
	}
	for _, op := range []string{"MINIT", "MDEINIT"} {
		if sys.Metrics.Histogram("nvme."+op+".latency_ps").Count() == 0 {
			t.Errorf("no %s latencies recorded", op)
		}
	}
	// Retry-outcome histogram: MINIT rides SubmitRetry, and the clean run
	// lands it in "ok".
	if sys.Metrics.Histogram("core.MINIT.latency_ps.ok").Count() == 0 {
		t.Error("no ok-outcome MINIT latencies recorded")
	}
	// Invoke-level results.
	if sys.Metrics.Histogram("core.invoke.latency_ps.morpheus").Count() != 1 {
		t.Error("invoke latency not recorded under the morpheus path")
	}
	if sys.Metrics.Histogram("core.invoke.attempts").Count() != 1 {
		t.Error("invoke attempts not recorded")
	}
	// Gauges sampled on the virtual clock.
	for _, g := range []string{
		"nvme.queue_depth", "ssd.slots_in_use", "ssd.slots_util",
		"flash.channel_util", "pcie.ssd_link_util", "host.cpu_util",
	} {
		if sys.Metrics.Gauge(g).Samples() == 0 {
			t.Errorf("gauge %s never sampled", g)
		}
	}
	// Utilizations are fractions.
	for _, g := range []string{"ssd.slots_util", "flash.channel_util", "pcie.ssd_link_util", "host.cpu_util"} {
		if v := sys.Metrics.Gauge(g).Max(); v < 0 || v > 1 {
			t.Errorf("gauge %s max = %v, want within [0,1]", g, v)
		}
	}
}

// TestResetTimersClearsMetrics: staging I/O before the measurement
// boundary must not leak into the measured registry.
func TestResetTimersClearsMetrics(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<12, 6)
	if _, err := sys.WriteFile("ints", data); err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	for _, name := range []string{"nvme.WRITE.latency_ps", "nvme.MREAD.latency_ps"} {
		if n := sys.Metrics.Histogram(name).Count(); n != 0 {
			t.Errorf("%s has %d observations after ResetTimers", name, n)
		}
	}
}

// TestFallbackOutcomeMetrics: a system without the Morpheus opcodes
// records the invoke under the host-fallback path.
func TestFallbackOutcomeMetrics(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) {
		c.WithGPU = false
		c.SSD.MorpheusSupported = false
	})
	data, _ := testInput(1<<12, 7)
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	parserFactory := func() HostParser {
		p := serial.TokenParser{Kind: serial.FieldInt32}
		return func(chunk []byte, final bool) []byte { return p.Parse(chunk, final) }
	}
	_, err = sys.InvokeStorageApp(0, InvokeOptions{
		App: intApp(true), File: f,
		Fallback: &Fallback{Parser: parserFactory},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Metrics.Histogram("core.invoke.latency_ps.host-fallback").Count() != 1 {
		t.Error("fallback invoke not recorded under host-fallback path")
	}
}
