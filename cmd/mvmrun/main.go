// Command mvmrun executes a compiled StorageApp image on a standalone
// embedded-core VM — handy for debugging device code without the whole
// SSD: feed it an input file, get the emitted object bytes and the cycle
// accounting a real MINIT/MREAD train would charge.
//
// Usage:
//
//	mvmrun -in data.txt app.mc.mvm > objects.bin
//	mvmrun -src app.mc -in data.txt -args 3,5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"morpheus/internal/morphc"
	"morpheus/internal/mvm"
	"morpheus/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the emitted objects to
// stdout and the accounting summary to stderr, and returns the exit
// status (2 for a malformed command line, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mvmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		srcPath = fs.String("src", "", "compile this MorphC source instead of loading an image")
		entry   = fs.String("entry", "", "StorageApp entry point")
		inPath  = fs.String("in", "", "input stream file (default: empty stream)")
		argList = fs.String("args", "", "comma-separated int64 host arguments")
		freqMHz = fs.Float64("mhz", 830, "embedded core frequency for the time estimate (> 0)")
		chunk   = fs.Int("chunk", 128<<10, "feed window size in bytes, the MDTS (> 0)")
		profile = fs.Bool("profile", false, "print a per-opcode execution histogram on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "mvmrun: "+format+"\n", args...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "mvmrun: %v\n", err)
		return 1
	}
	switch {
	case *chunk <= 0:
		return usage("-chunk must be > 0, got %d", *chunk)
	case !(*freqMHz > 0):
		return usage("-mhz must be > 0, got %v", *freqMHz)
	}

	var prog *mvm.Program
	switch {
	case *srcPath != "":
		src, err := os.ReadFile(*srcPath)
		if err != nil {
			return fail(err)
		}
		if prog, err = morphc.Compile(string(src), *entry); err != nil {
			return fail(err)
		}
	case fs.NArg() == 1:
		img, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		prog = new(mvm.Program)
		if err := prog.UnmarshalBinary(img); err != nil {
			return fail(err)
		}
	default:
		return usage("usage: mvmrun [-src app.mc | image.mvm] [-in data] [-args a,b,c]")
	}

	var vmArgs []int64
	if *argList != "" {
		for _, tok := range strings.Split(*argList, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
			if err != nil {
				return usage("-args: bad argument %q: %v", tok, err)
			}
			vmArgs = append(vmArgs, v)
		}
	}
	var input []byte
	if *inPath != "" {
		var err error
		if input, err = os.ReadFile(*inPath); err != nil {
			return fail(err)
		}
	}

	cfg := mvm.DefaultConfig()
	cfg.Profile = *profile
	vm, err := mvm.New(prog, cfg, mvm.DefaultCostModel())
	if err != nil {
		return fail(err)
	}
	vm.SetArgs(vmArgs)
	pos := 0
	var outBytes int64
	feed := func() error {
		end := min(pos+*chunk, len(input))
		err := vm.Feed(input[pos:end], end == len(input))
		pos = end
		return err
	}
	emit := func() {
		out := vm.DrainOutput()
		outBytes += int64(len(out))
		stdout.Write(out)
	}
	if err := feed(); err != nil {
		return fail(err)
	}
	for {
		switch st := vm.Run(); st {
		case mvm.StateNeedInput:
			if err := feed(); err != nil {
				return fail(err)
			}
		case mvm.StateOutputFull, mvm.StateFlushRequested:
			emit()
		case mvm.StateHalted:
			emit()
			freq := units.Frequency(*freqMHz) * units.MHz
			ints, floats := vm.ScanCounts()
			fmt.Fprintf(stderr,
				"mvmrun: %q halted: ret=%d in=%dB out=%dB cycles=%.0f (%.2f cyc/B, %v at %v) steps=%d scans=%d int/%d float softfloat-ops=%d\n",
				prog.Name, vm.ReturnValue(), vm.Consumed(), outBytes, vm.Cycles(),
				vm.Cycles()/float64(max(vm.Consumed(), 1)),
				freq.Cycles(vm.Cycles()), freq, vm.Steps(), ints, floats, vm.FloatOps())
			if *profile {
				fmt.Fprint(stderr, vm.Profile().String())
			}
			return 0
		case mvm.StateTrapped:
			return fail(vm.TrapErr())
		default:
			return fail(fmt.Errorf("unexpected VM state %v", st))
		}
	}
}
