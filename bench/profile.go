package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// profileShares reads a CPU profile back with `go tool pprof -top` and
// returns each profilePackages group's share of the samples outside the
// set-up phase (the benchmark labels its goroutine phase=setup while it
// builds and stages; the runtime's own GC workers carry no label and
// count).
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-tagignore=phase=setup", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	flat, err := parseTop(out)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, p := range profilePackages {
		shares[p] = 0
	}
	var total time.Duration
	for fn, d := range flat {
		shares[packageGroup(fn)] += float64(d)
		total += d
	}
	if total > 0 {
		for p := range shares {
			shares[p] /= float64(total)
		}
	}
	return shares, nil
}

// parseTop extracts each function's flat time from `pprof -top` text: the
// rows under the "flat  flat%" header, whose first field is the flat time
// and whose sixth field onward is the function name.
func parseTop(out []byte) (map[string]time.Duration, error) {
	flat := map[string]time.Duration{}
	inRows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		d, err := parsePprofDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", sc.Text(), err)
		}
		flat[strings.Join(fields[5:], " ")] += d
	}
	if !inRows {
		return nil, fmt.Errorf("pprof -top printed no sample table")
	}
	return flat, sc.Err()
}

// parsePprofDuration reads pprof's sample values: "0", "10ms", "1.50s",
// "2.10mins", "1hrs".
func parsePprofDuration(s string) (time.Duration, error) {
	units := []struct {
		suffix string
		scale  time.Duration
	}{{"mins", time.Minute}, {"hrs", time.Hour}, {"ns", time.Nanosecond},
		{"us", time.Microsecond}, {"ms", time.Millisecond}, {"s", time.Second}}
	if s == "0" {
		return 0, nil
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return time.Duration(v * float64(u.scale)), nil
		}
	}
	return 0, fmt.Errorf("unknown unit in %q", s)
}

// packageGroup maps a profiled function name to its profilePackages
// group: morpheus/internal/<pkg> for the simulator's layers, runtime for
// the Go runtime (GC, malloc, scheduler, maps), and other for the rest.
func packageGroup(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may hold other packages' paths
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "morpheus/internal/"); ok {
		for _, p := range profilePackages {
			if p == name {
				return p
			}
		}
	}
	return "other"
}
