// Command morphc compiles MorphC StorageApp source into an MVM device
// image, playing the device-side half of the paper's §V-B compiler.
//
// Usage:
//
//	morphc -o app.mvm app.mc          # compile to a binary image
//	morphc -S app.mc                  # print the assembly instead
//	morphc -entry inputapplet app.mc  # pick one of several StorageApps
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"morpheus/internal/morphc"
	"morpheus/internal/mvm"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the image (or the
// assembly, on stdout) and returns the exit status (2 for a malformed
// command line, 1 for a failed compile or write).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("morphc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out   = fs.String("o", "", "output image path (default: <src>.mvm)")
		asm   = fs.Bool("S", false, "emit MVM assembly on stdout instead of an image")
		entry = fs.String("entry", "", "StorageApp entry point when the source declares several")
		opt   = fs.Int("O", 1, "optimization level (0 = naive stack code, 1 = fold/peephole/DCE)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "morphc: %v\n", err)
		return code
	}
	if *opt != 0 && *opt != 1 {
		return fail(2, fmt.Errorf("-O must be 0 or 1, got %d", *opt))
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: morphc [-S] [-o out.mvm] [-entry name] [-O 0|1] <source.mc>")
		return 2
	}
	srcPath := fs.Arg(0)
	src, err := os.ReadFile(srcPath)
	if err != nil {
		return fail(1, err)
	}
	prog, err := morphc.CompileWithOptions(string(src), *entry, morphc.OptLevel(*opt))
	if err != nil {
		return fail(1, err)
	}
	if *asm {
		fmt.Fprint(stdout, mvm.Disassemble(prog))
		return 0
	}
	img, err := prog.MarshalBinary()
	if err != nil {
		return fail(1, err)
	}
	dst := *out
	if dst == "" {
		dst = srcPath + ".mvm"
	}
	if err := os.WriteFile(dst, img, 0o644); err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stdout, "%s: StorageApp %q, %d instructions, %d bytes of image, %d D-SRAM bytes static\n",
		dst, prog.Name, len(prog.Code), len(img), prog.SRAMStatic)
	return 0
}
