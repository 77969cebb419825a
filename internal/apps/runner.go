package apps

import (
	"fmt"

	"morpheus/internal/core"
	"morpheus/internal/gpu"
	"morpheus/internal/stats"
	"morpheus/internal/units"
	"morpheus/internal/workload"
)

// Mode selects the execution model.
type Mode int

// Execution modes.
const (
	// ModeBaseline is the conventional model of Figure 1: CPU
	// deserialization over normal READs.
	ModeBaseline Mode = iota
	// ModeMorpheus offloads deserialization to the Morpheus-SSD, objects
	// DMA'd to host DRAM (Figure 4, step 1).
	ModeMorpheus
	// ModeMorpheusP2P additionally streams objects straight to GPU device
	// memory over NVMe-P2P (Figure 4, step 5).
	ModeMorpheusP2P
	// ModeMorpheusFallback is ModeMorpheus with degraded-mode handling: if
	// the device path fails persistently (or the controller lacks the
	// Morpheus opcodes), each shard is served by the conventional host
	// parser instead of failing the run.
	ModeMorpheusFallback
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeMorpheus:
		return "morpheus"
	case ModeMorpheusP2P:
		return "morpheus+p2p"
	case ModeMorpheusFallback:
		return "morpheus+fallback"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// KernelIPC is the achieved IPC of the optimized computation kernels —
// deliberately above the deserialization loop's 1.2 ("allowing the CPU to
// devote its resources to other, higher-IPC processes").
const KernelIPC = 2.0

// GPUEfficiency is the achieved fraction of peak ALU throughput.
const GPUEfficiency = 0.5

// Report is one application run, phase by phase — the raw material for
// every figure.
type Report struct {
	App  string
	Mode Mode

	Deser     units.Duration
	OtherCPU  units.Duration
	GPUCopy   units.Duration
	GPUKernel units.Duration
	Total     units.Duration

	RawBytes units.Bytes
	ObjBytes units.Bytes

	// Deserialization-phase OS activity (Figure 10).
	DeserCtxSwitches int64
	DeserSyscalls    int64

	// Deserialization-phase component busy time (Figure 9's power model).
	DeserCPUBusy     units.Duration
	DeserSSDCoreBusy units.Duration
	DeserSSDIOBusy   units.Duration

	// Morpheus-only: measured embedded-core cycles/byte and NVMe command
	// count.
	CyclesPerByte float64
	Commands      int

	// Fallbacks counts shards the degraded host path served instead of
	// the SSD; Retries counts device-path replays across all shards.
	Fallbacks int
	Retries   int

	// Objects is the per-thread object stream (data plane), for
	// verification.
	Objects [][]byte
}

// DeserFraction is deserialization's share of total execution (Figure 2).
func (r *Report) DeserFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Deser) / float64(r.Total)
}

// Stage generates the application's input at scale (fraction of the Table
// I size) and writes one shard per thread onto the SSD. Call
// sys.ResetTimers() afterwards, before Run.
func Stage(sys *core.System, app *App, scale float64, seed int64) ([]*core.File, workload.Shards, error) {
	if scale <= 0 {
		scale = 1.0 / 256
	}
	target := units.Bytes(float64(app.PaperInputSize) * scale)
	shards := app.Gen(target, app.Threads, seed)
	files := make([]*core.File, len(shards))
	for i, sh := range shards {
		f, err := sys.WriteFile(fmt.Sprintf("%s/shard%d", app.Name, i), sh)
		if err != nil {
			return nil, nil, err
		}
		files[i] = f
	}
	return files, shards, nil
}

// Run executes the application end to end in the given mode on a freshly
// reset system. Each I/O thread runs on its own timeline; shared hardware
// arbitrates through the resource ledgers.
func Run(sys *core.System, app *App, files []*core.File, mode Mode) (*Report, error) {
	if app.UsesGPU && sys.GPU == nil {
		return nil, fmt.Errorf("apps: %s needs a GPU in the system", app.Name)
	}
	if mode == ModeMorpheusP2P {
		if !app.UsesGPU {
			return nil, fmt.Errorf("apps: %s is not a GPU application; P2P does not apply", app.Name)
		}
		if err := sys.EnableP2P(); err != nil {
			return nil, err
		}
	}
	rep := &Report{App: app.Name, Mode: mode}
	ctx0 := sys.Counters.Get(stats.CtxSwitches)
	sys0 := sys.Counters.Get(stats.Syscalls)
	cpuBusy0 := sys.Host.Cores.BusyTime()
	var ssdBusy0 units.Duration
	for _, c := range sys.SSD.Cores() {
		ssdBusy0 += c.BusyTime()
	}
	ssdIO0 := sys.SSD.Flash.ChannelBusyTime()

	// ---- Deserialization phase --------------------------------------
	var deserEnd units.Time
	switch mode {
	case ModeBaseline:
		for i, f := range files {
			res, err := sys.DeserializeConventional(0, f, app.HostParser(), app.Spec, i, nil)
			if err != nil {
				return nil, err
			}
			if res.Done > deserEnd {
				deserEnd = res.Done
			}
			rep.RawBytes += res.RawBytes
			rep.ObjBytes += units.Bytes(len(res.Out))
			rep.Objects = append(rep.Objects, res.Out)
			rep.Commands += res.Commands
		}
	case ModeMorpheus, ModeMorpheusP2P, ModeMorpheusFallback:
		for i, f := range files {
			opt := core.InvokeOptions{App: app.StorageApp(), File: f}
			if mode == ModeMorpheusP2P {
				opt.Dest = core.Target{OnGPU: true}
			}
			if mode == ModeMorpheusFallback {
				opt.Fallback = &core.Fallback{
					Parser:  app.HostParser,
					Spec:    app.Spec,
					CoreIdx: i,
				}
			}
			res, err := sys.InvokeStorageApp(0, opt)
			if err != nil {
				return nil, err
			}
			if res.Done > deserEnd {
				deserEnd = res.Done
			}
			rep.RawBytes += f.Size
			rep.ObjBytes += units.Bytes(len(res.Out))
			rep.Objects = append(rep.Objects, res.Out)
			rep.Commands += res.Commands
			if res.Path == core.PathMorpheus {
				rep.CyclesPerByte = res.CyclesPerByte
			} else {
				rep.Fallbacks++
			}
			if res.Attempts > 1 {
				rep.Retries += res.Attempts - 1
			}
		}
	default:
		return nil, fmt.Errorf("apps: unknown mode %v", mode)
	}
	rep.Deser = units.Duration(deserEnd)
	rep.DeserCtxSwitches = sys.Counters.Get(stats.CtxSwitches) - ctx0
	rep.DeserSyscalls = sys.Counters.Get(stats.Syscalls) - sys0
	rep.DeserCPUBusy = sys.Host.Cores.BusyTime() - cpuBusy0
	var ssdBusy1 units.Duration
	for _, c := range sys.SSD.Cores() {
		ssdBusy1 += c.BusyTime()
	}
	rep.DeserSSDCoreBusy = ssdBusy1 - ssdBusy0
	rep.DeserSSDIOBusy = (sys.SSD.Flash.ChannelBusyTime() - ssdIO0) /
		units.Duration(sys.Cfg.SSD.Geometry.Channels)

	// The deserialization phase is complete and every later phase (other
	// CPU work, GPU copy, kernel) issues at ready >= deserEnd, so the
	// host-side ledgers up to deserEnd are dead weight: retire them. Under
	// a co-runner's periodic timeslices this is what keeps the core
	// ledgers — and every later backfilling insert — from growing with
	// input size.
	sys.Host.Cores.Retire(deserEnd)
	sys.Host.MemBus.Retire(deserEnd)

	// ---- Other CPU computation --------------------------------------
	t := deserEnd
	if app.OtherCPUInstrPerObjByte > 0 {
		t = sys.Host.Compute(t, app.OtherCPUInstrPerObjByte*float64(rep.ObjBytes), KernelIPC)
	}
	rep.OtherCPU = t.Sub(deserEnd)

	// ---- GPU copy (phase C' setup) ----------------------------------
	copyStart := t
	if app.UsesGPU && mode != ModeMorpheusP2P {
		addr, t2, err := sys.Host.AllocDMA(t, rep.ObjBytes)
		if err != nil {
			return nil, err
		}
		t = t2
		end, err := sys.GPU.CopyHostToDevice(t, addr, rep.ObjBytes)
		if err != nil {
			return nil, err
		}
		t = end
	}
	rep.GPUCopy = t.Sub(copyStart)

	// ---- Computation kernel ------------------------------------------
	kernelStart := t
	elem := int64(4)
	if len(app.Fields) > 0 {
		elem = int64(app.Fields[0].Width())
	}
	if app.UsesGPU {
		spec := gpu.KernelSpec{
			Name:            app.Name,
			InstrPerElement: app.KernelInstrPerObjByte * float64(elem),
			BytesPerElement: units.Bytes(elem),
			Elements:        int64(rep.ObjBytes) / elem,
			Efficiency:      GPUEfficiency,
		}
		t = sys.GPU.RunKernel(t, spec)
	} else {
		// The kernel streams the object arrays from memory.
		sys.Host.MemTraffic(kernelStart, rep.ObjBytes)
		instr := app.KernelInstrPerObjByte * float64(rep.ObjBytes)
		threads := app.Threads
		if threads < 1 {
			threads = 1
		}
		var end units.Time
		for i := 0; i < threads; i++ {
			if e := sys.Host.Compute(kernelStart, instr/float64(threads), KernelIPC); e > end {
				end = e
			}
		}
		t = end
	}
	rep.GPUKernel = t.Sub(kernelStart)
	if !app.UsesGPU {
		// For CPU apps the "kernel" bar belongs to OtherCPU in Figure 2's
		// legend; keep it separate here and let the figure formatter fold.
	}
	rep.Total = units.Duration(t)
	// Per-phase latency distributions, named after the Figure 2 legend.
	recordPhase := func(p stats.Phase, d units.Duration) {
		if d > 0 {
			sys.PhaseLatency(p).Observe(int64(t), int64(d))
		}
	}
	recordPhase(stats.PhaseDeserialize, rep.Deser)
	recordPhase(stats.PhaseCPUCompute, rep.OtherCPU)
	recordPhase(stats.PhaseGPUCopy, rep.GPUCopy)
	recordPhase(stats.PhaseGPUKernel, rep.GPUKernel)
	return rep, nil
}

// VerifyObjects checks that two runs produced bit-identical object
// streams, thread by thread.
func VerifyObjects(a, b *Report) error {
	if len(a.Objects) != len(b.Objects) {
		return fmt.Errorf("apps: thread counts differ: %d vs %d", len(a.Objects), len(b.Objects))
	}
	for i := range a.Objects {
		if len(a.Objects[i]) != len(b.Objects[i]) {
			return fmt.Errorf("apps: thread %d object sizes differ: %d vs %d", i, len(a.Objects[i]), len(b.Objects[i]))
		}
		for j := range a.Objects[i] {
			if a.Objects[i][j] != b.Objects[i][j] {
				return fmt.Errorf("apps: thread %d objects differ at byte %d", i, j)
			}
		}
	}
	return nil
}
