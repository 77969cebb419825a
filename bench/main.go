// Command bench is the repository's end-to-end benchmark. It runs four
// named workloads against the simulator through the same public API the
// experiments use, timing set-up apart from the measured phase, and
// prints one JSON record per workload: host-time metrics (how fast the
// simulator runs), simulated-time metrics (what the modelled Morpheus
// hardware would take) and an identity hash of the simulated ones.
//
//	go -C bench run . -seed 20160618 [-workload W] [-seconds S] [-trace DIR]
//
// Without -workload every workload runs in a fresh child process. With
// -workload the record is followed by a one-line summary of the metrics
// BENCHMARK.json names. README.md describes every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// minReps is the fewest repetitions a workload runs: host metrics are
// their median, and simulated metrics must agree across all of them.
const minReps = 3

// record is the full result of one workload.
type record struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	NumCPU      int              `json:"num_cpu"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	GoVersion   string           `json:"go_version"`
	Repetitions int              `json:"repetitions"`
	Identity    string           `json:"identity"`
	Attempted   int64            `json:"attempted"`
	Failed      int64            `json:"failed"`
	Metrics     map[string]value `json:"metrics"`
	// Raw holds the host measurements the host-time metrics are scaled
	// from: calibration_s, setup_raw_s and throughput_raw_mb_s.
	Raw      map[string]value `json:"raw"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
}

// summary is the last line printed for one workload: the gated end-to-end
// metrics, or with -trace the per-layer metrics.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	seed := flag.Int64("seed", 20160618, "workload generator seed")
	name := flag.String("workload", "", "run only this workload, in this process (default: each in a child process)")
	seconds := flag.Float64("seconds", 0, "repeat until the measured phases add up to at least this many seconds (never fewer than 3 repetitions)")
	traceDir := flag.String("trace", "", "also run one traced repetition per workload, writing spans and a CPU profile to this directory")
	flag.Parse()
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *traceDir))
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rec, err := measure(w, *seed, defaultSizes, *seconds, *traceDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	sum := summary{Correct: true, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]value{}}
	if rec.PerLayer != nil {
		sum.Metrics = rec.PerLayer
	} else {
		for _, d := range gated {
			sum.Metrics[d.name] = rec.Metrics[d.name]
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(sum); err != nil {
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runAll runs each workload in a child process of this program, so that
// peak RSS and GC state belong to one workload, and prints each child's
// record. It returns the exit status.
func runAll(seed int64, seconds float64, traceDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
		if traceDir != "" {
			args = append(args, "-trace", traceDir)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		record, _, _ := strings.Cut(string(out), "\n")
		fmt.Println(record)
	}
	return status
}

// measure runs repetitions of w until there are at least minReps and
// their measured phases add up to minSeconds, checks that every
// repetition produced the same simulated metrics, and builds the record.
// With traceDir set it then runs one traced repetition for the per-layer
// metrics.
func measure(w workload, seed int64, sz sizes, minSeconds float64, traceDir string) (*record, error) {
	tmp, err := os.MkdirTemp("", "morpheus-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var reps []*rep
	var cals []float64
	var measured time.Duration
	for len(reps) < minReps || measured.Seconds() < minSeconds {
		cals = append(cals, calibrate().Seconds())
		r, err := runRep(w, seed, sz, tmp, false)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", len(reps)+1, err)
		}
		if len(reps) > 0 {
			if d := firstDifference(reps[0].sim, r.sim); d != "" {
				return nil, fmt.Errorf("simulated metric %s differs between repetitions 1 and %d", d, len(reps)+1)
			}
		}
		reps = append(reps, r)
		measured += r.run
	}
	first := reps[0]
	rec := &record{
		Workload:    w.name,
		Seed:        seed,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Repetitions: len(reps),
		Identity:    identity(first.sim),
		Metrics:     map[string]value{},
		Raw:         map[string]value{},
	}
	var setups, throughputs, rss, runs []float64
	for _, r := range reps {
		rec.Attempted += r.ops
		rec.Failed += r.failed
		setups = append(setups, r.setup.Seconds())
		throughputs = append(throughputs, float64(r.inBytes)/1e6/r.run.Seconds())
		rss = append(rss, r.rssP90MB)
		runs = append(runs, r.run.Seconds())
	}
	// Host times are in reference seconds; see calRef.
	cal := median(cals)
	scale := calRef.Seconds() / cal
	rec.Raw["calibration_s"] = value{Value: cal, Unit: "s"}
	rec.Raw["setup_raw_s"] = value{Value: median(setups), Unit: "s"}
	rec.Raw["throughput_raw_mb_s"] = value{Value: median(throughputs), Unit: "MB/s"}
	rec.Metrics["setup_s"] = value{Value: median(setups) * scale, Unit: "s"}
	rec.Metrics["throughput_mb_s"] = value{Value: median(throughputs) / scale, Unit: "MB/s"}
	rec.Metrics["rss_p90_mb"] = value{Value: median(rss), Unit: "MB"}
	for _, d := range workloadMetrics {
		v, ok := first.e2e[d.name]
		if !ok {
			continue
		}
		m := value{Value: v, Unit: d.unit}
		if p, ok := paperValues[d.name]; ok {
			e := v/p - 1
			m.Paper, m.Error = &p, &e
		}
		rec.Metrics[d.name] = m
	}
	if traceDir != "" {
		rec.PerLayer, err = traced(w, seed, sz, tmp, traceDir, first, median(runs))
		if err != nil {
			return nil, fmt.Errorf("traced repetition: %w", err)
		}
	}
	return rec, nil
}

// runRep runs one repetition after collecting the previous one's garbage
// and returning it to the OS, so repetitions start from the same heap.
func runRep(w workload, seed int64, sz sizes, tmp string, trace bool) (*rep, error) {
	debug.FreeOSMemory()
	r := newRep(seed, sz, tmp)
	if trace {
		r.spans = newSpanRecorder()
		r.acct = newPhaseAccount()
	}
	stopRSS := sampleRSS()
	root := r.spans.begin("rep")
	err := w.run(r)
	r.spans.end(root)
	if trace {
		r.acct.close()
	}
	rss, rssErr := stopRSS()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	sort.Float64s(rss)
	r.rssP90MB = nearestRank(rss, 90)
	r.finish()
	return r, nil
}

// traced runs one extra, untimed repetition with spans, phase accounting
// and a CPU profile, writes DIR/<workload>.spans.json and
// DIR/<workload>.cpu.pprof, and returns every per-layer metric. untraced
// is the first untraced repetition, whose simulated metrics the traced
// one must reproduce; runS is the untraced median measured time.
func traced(w workload, seed int64, sz sizes, tmp, dir string, untraced *rep, runS float64) (map[string]value, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(dir, w.name+".cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	r, err := runRep(w, seed, sz, tmp, true)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if d := firstDifference(untraced.sim, r.sim); d != "" {
		return nil, fmt.Errorf("simulated metric %s differs from the untraced repetitions", d)
	}
	if err := writeFile(filepath.Join(dir, w.name+".spans.json"), func(f io.Writer) error {
		return writeChromeSpans(f, r.spans.spans)
	}); err != nil {
		return nil, err
	}
	shares, err := profileShares(profPath)
	if err != nil {
		return nil, err
	}

	onHost := map[string]float64{}
	self := selfTimes(r.spans.spans)
	for _, s := range spanMetrics {
		onHost[s.metric] = self[s.span].Seconds()
	}
	for p, share := range shares {
		onHost["host.self."+p] = share
	}
	onHost["host.alloc_b_per_in_b"] = ratio(float64(r.acct.runAlloc), float64(r.inBytes))
	onHost["host.gc_cycles"] = float64(r.acct.runGC)
	onHost["sim.events"] = float64(r.events)
	onHost["sim.events_per_s"] = ratio(float64(r.events), runS)
	onHost["bench.trace_overhead"] = ratio(r.run.Seconds(), runS)

	out := map[string]value{}
	for _, d := range perLayer {
		v := r.sim[d.name]
		if d.src == host {
			v = onHost[d.name]
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, nil
}
