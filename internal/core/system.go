// Package core implements the paper's primary contribution: the Morpheus
// model. It provides the host-side pieces of Figure 5 — the runtime system
// that turns StorageApp invocations into MINIT/MREAD/MWRITE/MDEINIT
// command sequences, the extended NVMe driver, the ms_stream file
// abstraction, and NVMe-P2P for direct SSD→GPU object delivery — glued to
// the simulated testbed (host CPU/OS, Morpheus-SSD, GPU, PCIe fabric).
package core

import (
	"fmt"

	"morpheus/internal/gpu"
	"morpheus/internal/host"
	"morpheus/internal/nvme"
	"morpheus/internal/pcie"
	"morpheus/internal/ssd"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// ErrNoMorpheus is returned when the attached controller does not
// advertise the Morpheus capability.
var ErrNoMorpheus = fmt.Errorf("core: controller does not support the Morpheus extension opcodes")

// SystemConfig assembles a testbed.
type SystemConfig struct {
	CPU host.CPUConfig
	OS  host.OSCosts
	Mem host.MemConfig
	SSD ssd.Config
	GPU gpu.Config
	// WithGPU attaches the accelerator (the Rodinia configurations).
	WithGPU bool
	// ParseCosts is the host-side deserialization cost model.
	ParseCosts host.ParseCosts
	// BatchDepth is how many MREAD commands the Morpheus runtime coalesces
	// into one doorbell ring (Driver.SubmitBatch). 1 submits
	// command-at-a-time; <= 0 uses 32.
	BatchDepth int
	// WindowDepth bounds submitted-but-unreaped MREAD commands. The train
	// reaps the oldest completions (Driver.ReapWindow) just enough to admit
	// the next batch instead of draining everything at once, keeping the
	// SQ/CQ pair saturated. <= 0 derives 2×BatchDepth; values below
	// BatchDepth clamp the batch down to the window.
	WindowDepth int
}

// DefaultSystemConfig matches §VI-A.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		CPU:        host.DefaultCPU(),
		OS:         host.DefaultOSCosts(),
		Mem:        host.DefaultMem(),
		SSD:        ssd.DefaultConfig(),
		GPU:        gpu.DefaultConfig(),
		WithGPU:    true,
		ParseCosts: host.DefaultParseCosts(),
		BatchDepth: 64,
	}
}

// File is a named extent on the SSD, as the host file system sees it. The
// ms_stream_create path asks the file system for exactly this layout
// information ("permission to access a file and information about the
// logical block addresses in file layouts").
type File struct {
	Name string
	Size units.Bytes
	SLBA uint64
	NLB  uint32
}

// System is the whole simulated testbed.
type System struct {
	Cfg SystemConfig
	// Metrics joins every counter, latency histogram, and utilization
	// gauge the testbed records; Counters is its counter set (the models
	// write counters through it directly, as they always have).
	Metrics  *stats.Registry
	Counters *stats.Set
	Fabric   *pcie.Fabric
	Host     *host.Host
	SSD      *ssd.Controller
	GPU      *gpu.GPU
	Driver   *Driver
	// Engine counts the driver's completion deliveries.
	Engine Engine
	// Identify is the controller's Identify page, fetched by the driver
	// at attach time — how the runtime learns the device speaks Morpheus
	// and what its transfer/working-set limits are.
	Identify *nvme.IdentifyController

	files    map[string]*File
	replicas map[string][]byte
	replica  *host.PipeMedium
	// replicaFetcher, when set, routes degraded-mode replica re-fetches
	// to the system actually holding the copy (see SetReplicaFetcher);
	// nil keeps the single-system local-copy behavior.
	replicaFetcher ReplicaFetcher
	nextPage       int64
	nextInstance   uint32

	// metrics holds the command path's resolved metric handles, and
	// ssdLink the SSD's fabric endpoint the link gauge reads.
	metrics *sysMetrics
	ssdLink *pcie.Endpoint

	tracer *trace.Tracer
}

// NewSystem builds the testbed.
func NewSystem(cfg SystemConfig) (*System, error) {
	metrics := stats.NewRegistry()
	counters := metrics.Counters()
	fabric := pcie.NewFabric(counters, host.EndpointName)
	h, err := host.New(cfg.CPU, cfg.OS, cfg.Mem, counters, fabric)
	if err != nil {
		return nil, err
	}
	ctrl, err := ssd.New(cfg.SSD, counters, fabric)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Cfg:      cfg,
		Metrics:  metrics,
		Counters: counters,
		Fabric:   fabric,
		Host:     h,
		SSD:      ctrl,
		files:    make(map[string]*File),
		replicas: make(map[string][]byte),
		metrics:  newSysMetrics(metrics),
		ssdLink:  fabric.Endpoint(ssd.EndpointName),
	}
	if cfg.WithGPU {
		sys.GPU = gpu.New(cfg.GPU, fabric)
	}
	sys.Driver = NewDriver(sys)
	id, _, err := sys.Driver.Identify(0)
	if err != nil {
		return nil, fmt.Errorf("core: identify: %w", err)
	}
	sys.Identify = id
	if max := id.MaxTransferBytes(); max > 0 && int64(cfg.SSD.MDTS) > max {
		return nil, fmt.Errorf("core: configured MDTS %v exceeds the device limit %d", cfg.SSD.MDTS, max)
	}
	// Attach-time work (the Identify round trip) is not part of any
	// measurement; hand the system over with clean timers.
	sys.ResetTimers()
	return sys, nil
}

// WriteFile stages data onto the SSD under name at setup time (through the
// ordinary FTL write path) and returns its extent. Call ResetTimers before
// measuring.
//
// The system retains data itself, not a copy, as the file's replica (the
// bytes ReplicaData returns and the degraded-mode re-fetch parses). The
// caller must not modify data after staging it; sharing one read-only
// buffer across systems, as array.StageObject does, is fine.
func (s *System) WriteFile(name string, data []byte) (*File, error) {
	if _, dup := s.files[name]; dup {
		return nil, fmt.Errorf("core: file %q already exists", name)
	}
	pageSize := int64(s.Cfg.SSD.Geometry.PageSize)
	slba, nlb, err := s.SSD.LoadFile(s.nextPage, data)
	if err != nil {
		return nil, err
	}
	s.nextPage += (int64(len(data)) + pageSize - 1) / pageSize
	f := &File{Name: name, Size: units.Bytes(len(data)), SLBA: slba, NLB: nlb}
	s.files[name] = f
	// Keep the replica every staged dataset has in practice; the
	// degraded-mode runtime re-fetches it when the local media loses data.
	s.replicas[name] = data
	return f, nil
}

// ReplicaData returns the remote copy of a staged file (the degraded-mode
// last resort when the local flash has lost pages). It is the buffer
// WriteFile was given; callers read it and must not modify it.
func (s *System) ReplicaData(name string) ([]byte, bool) {
	data, ok := s.replicas[name]
	return data, ok
}

// ReplicaMedium is the transport the replica re-fetch pays for: a
// datacenter-network-class pipe (~100 µs, ~1.2 GB/s) feeding the same
// conventional parse loop as any other medium.
func (s *System) ReplicaMedium() host.Medium {
	if s.replica == nil {
		s.replica = host.NewPipeMedium(s.Host, "replica", 100*units.Microsecond, 1.2*units.GBps)
	}
	return s.replica
}

// OpenFile looks up a staged file.
func (s *System) OpenFile(name string) (*File, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("core: no such file %q", name)
	}
	return f, nil
}

// ResetTimers zeroes all timing state and statistics, preserving stored
// data — the boundary between experiment setup and measurement. Every
// unit with an interval ledger or a traffic counter must be covered here:
// a missed one carries setup traffic (or a previous run) into the
// measured run's utilization gauges.
func (s *System) ResetTimers() {
	s.Host.Cores.Reset()
	s.Host.MemBus.Reset()
	s.SSD.ResetTimers()
	s.Fabric.ResetTimers()
	if s.GPU != nil {
		s.GPU.ResetTimers()
	}
	if s.replica != nil {
		s.replica.Reset()
	}
	s.Driver.ResetTimers()
	s.Engine.Reset()
	s.Metrics.Reset()
}

// EnableTrace attaches a fresh event tracer (capped at cap events; 0 =
// unbounded) to every unit of the testbed and returns it. Use
// tracer.WriteGantt, or stream the events to a trace.ChromeStream with
// SetSink, to inspect command-level overlap.
func (s *System) EnableTrace(cap int) *trace.Tracer {
	t := trace.New(cap)
	s.AttachTracer(t)
	return t
}

// AttachTracer wires an existing tracer into every unit — the driver (span
// allocation and host-side submit events), the SSD pipeline (firmware,
// FTL, flash, DMA), and the GPU. Experiments that aggregate several
// systems into one trace share a tracer this way. Nil detaches.
func (s *System) AttachTracer(t *trace.Tracer) {
	s.tracer = t
	s.SSD.SetTracer(t)
	if s.GPU != nil {
		s.GPU.SetTracer(t)
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (s *System) Tracer() *trace.Tracer { return s.tracer }

// sampleGauges records one utilization sample per shared resource on the
// virtual clock. The driver calls it at command completion points, so
// gauge resolution follows command rate.
func (s *System) sampleGauges(now units.Time) {
	if now <= 0 {
		return
	}
	m := s.metrics
	t := int64(now)
	m.queueDepth.Sample(t, float64(s.Driver.inflight))
	inst := float64(s.SSD.Instances())
	m.slotsInUse.Sample(t, inst)
	m.slotsUtil.Sample(t, inst/float64(s.SSD.MaxInstances()))
	ch := float64(s.Cfg.SSD.Geometry.Channels)
	m.channelUtil.Sample(t, float64(s.SSD.Flash.ChannelBusyTime())/(ch*float64(now)))
	// Full-duplex link: busy time is summed over both directions.
	m.linkUtil.Sample(t, float64(s.ssdLink.BusyTime())/(2*float64(now)))
	m.cpuUtil.Sample(t, float64(s.Host.Cores.BusyTime())/(float64(s.Cfg.CPU.Cores)*float64(now)))
	if s.SSD.CacheEnabled() {
		// Only when the object cache is on, so default runs keep their
		// exact metrics schema.
		m.cacheOccupancy.Sample(t, float64(s.SSD.CacheBytes()))
	}
}

// NextInstanceID issues a unique StorageApp instance ID ("the Morpheus-SSD
// runtime also generates a unique instance ID for each thread calling a
// StorageApp").
func (s *System) NextInstanceID() uint32 {
	s.nextInstance++
	return s.nextInstance
}

// Stream is the host-side ms_stream: a handle carrying the file layout the
// runtime needs to generate MREAD/MWRITE commands.
type Stream struct {
	File *File
}

// CreateStream implements ms_stream_create: it consults the file system
// for permissions and the LBA layout, leaving "the file permission checks
// in the host operating system" rather than on the SSD. It costs one
// system call.
func (s *System) CreateStream(ready units.Time, f *File) (*Stream, units.Time) {
	return &Stream{File: f}, s.Host.Syscall(ready)
}

// chunks splits an extent into MDTS-sized command ranges.
type chunkRange struct {
	slba uint64
	nlb  uint32
	last bool
}

func (s *System) chunksOf(f *File) []chunkRange {
	mdts := int64(s.Cfg.SSD.MDTS)
	lbaPerCmd := mdts / nvme.LBASize
	var out []chunkRange
	remaining := int64(f.NLB)
	slba := f.SLBA
	for remaining > 0 {
		n := remaining
		if n > lbaPerCmd {
			n = lbaPerCmd
		}
		out = append(out, chunkRange{slba: slba, nlb: uint32(n)})
		slba += uint64(n)
		remaining -= n
	}
	if len(out) > 0 {
		out[len(out)-1].last = true
	}
	return out
}
