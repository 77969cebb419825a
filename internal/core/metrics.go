package core

import (
	"morpheus/internal/nvme"
	"morpheus/internal/stats"
)

// sysMetrics holds the metric handles a system's command path observes
// through, resolved once when the system is built, so no command builds
// or hashes a metric name. Resolving adds nothing to any artifact; a
// metric appears once it is first observed, exactly as before.
type sysMetrics struct {
	reg *stats.Registry

	// Driver: doorbell attribution and per-opcode completion latency.
	doorbells, sqes, coalesced stats.TimedCounter
	submitOverhead             stats.Latency
	// ops is "nvme.<op>.latency_ps" by opcode, resolved at the opcode's
	// first completion (see opLatency).
	ops [256]stats.Latency

	// Retry and runtime.
	retries, timeouts, hostFallbacks, replicaFallbacks stats.TimedCounter
	minitRetry, readRetry                              retryOp
	invoke                                             [PathReplicaFallback + 1]stats.Latency
	attempts                                           stats.Latency
	phases                                             [stats.NumPhases]stats.Latency
	parseCycles                                        stats.TimedCounter

	// Gauges sampled at command completion points (sampleGauges).
	queueDepth, slotsInUse, slotsUtil, channelUtil, linkUtil, cpuUtil, cacheOccupancy stats.Sampler
}

// retryOp is one operation SubmitRetry runs: its name, for errors, and
// its latency "core.<name>.latency_ps.<outcome>", by outcome.
type retryOp struct {
	name string
	lat  [len(retryOutcomes)]stats.Latency
}

// retryOutcomes names SubmitRetry's outcomes: a clean first attempt, one
// a retry saved, and one the policy gave up on.
var retryOutcomes = [...]string{"ok", "recovered", "failed"}

const (
	outcomeOK = iota
	outcomeRecovered
	outcomeFailed
)

func newSysMetrics(reg *stats.Registry) *sysMetrics {
	m := &sysMetrics{
		reg:              reg,
		doorbells:        reg.TimedCounter(stats.HostDoorbells),
		sqes:             reg.TimedCounter(stats.HostSQEs),
		coalesced:        reg.TimedCounter(stats.HostCoalesced),
		submitOverhead:   reg.Latency(stats.HostSubmitOverhead),
		retries:          reg.TimedCounter(stats.CmdRetries),
		timeouts:         reg.TimedCounter(stats.CmdTimeouts),
		hostFallbacks:    reg.TimedCounter(stats.HostFallbacks),
		replicaFallbacks: reg.TimedCounter(stats.ReplicaFallbacks),
		minitRetry:       newRetryOp(reg, "MINIT"),
		readRetry:        newRetryOp(reg, "READ"),
		attempts:         reg.Latency("core.invoke.attempts"),
		parseCycles:      reg.TimedCounter(stats.HostParseCyc),
		queueDepth:       reg.Sampler("nvme.queue_depth"),
		slotsInUse:       reg.Sampler("ssd.slots_in_use"),
		slotsUtil:        reg.Sampler("ssd.slots_util"),
		channelUtil:      reg.Sampler("flash.channel_util"),
		linkUtil:         reg.Sampler("pcie.ssd_link_util"),
		cpuUtil:          reg.Sampler("host.cpu_util"),
		cacheOccupancy:   reg.Sampler("ssd.cache.occupancy_bytes"),
	}
	for p := range m.invoke {
		m.invoke[p] = reg.Latency("core.invoke.latency_ps." + ServePath(p).String())
	}
	for p := range m.phases {
		m.phases[p] = reg.Latency("phase." + stats.Phase(p).String() + "_ps")
	}
	return m
}

func newRetryOp(reg *stats.Registry, name string) retryOp {
	op := retryOp{name: name}
	for i, o := range retryOutcomes {
		op.lat[i] = reg.Latency("core." + name + ".latency_ps." + o)
	}
	return op
}

// opLatency returns op's completion latency handle, resolving it on
// first use: only opcodes the system actually issues get one.
func (m *sysMetrics) opLatency(op nvme.Opcode) stats.Latency {
	if m.ops[op] == (stats.Latency{}) {
		m.ops[op] = m.reg.Latency("nvme." + op.String() + ".latency_ps")
	}
	return m.ops[op]
}

// PhaseLatency returns the system's "phase.<p>_ps" latency handle,
// resolved when the system was built.
func (s *System) PhaseLatency(p stats.Phase) stats.Latency { return s.metrics.phases[p] }
