// Command datagen generates the benchmark inputs of Table I as real files
// on disk — useful for inspecting what the simulated workloads look like
// or for feeding mvmrun.
//
// Usage:
//
//	datagen -app pagerank -scale 0.004 -shards 4 -o /tmp/pr
//	datagen -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"morpheus/internal/apps"
	"morpheus/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the shard files and a
// report on stdout, and returns the exit status (2 for a malformed command
// line, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName = fs.String("app", "", "application name (see -list)")
		scale   = fs.Float64("scale", 1.0/256, "fraction of the Table I input size (> 0)")
		shards  = fs.Int("shards", 0, "number of shards (default: the app's thread count)")
		outDir  = fs.String("o", ".", "output directory")
		seed    = fs.Int64("seed", 20160618, "generator seed")
		list    = fs.Bool("list", false, "list applications")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "datagen: %v\n", err)
		return code
	}
	if *list {
		for _, a := range apps.All() {
			fmt.Fprintf(stdout, "  %-11s %-13s %-5s paper input %v, %d I/O threads\n",
				a.Name, a.Suite, a.Parallel, a.PaperInputSize, a.Threads)
		}
		return 0
	}
	if !(*scale > 0) {
		return fail(2, fmt.Errorf("-scale must be > 0, got %v", *scale))
	}
	app, err := apps.ByName(*appName)
	if err != nil {
		return fail(2, fmt.Errorf("-app: %w", err))
	}
	n := *shards
	if n <= 0 {
		n = app.Threads
	}
	target := units.Bytes(float64(app.PaperInputSize) * *scale)
	data := app.Gen(target, n, *seed)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(1, err)
	}
	var total units.Bytes
	for i, sh := range data {
		path := filepath.Join(*outDir, fmt.Sprintf("%s.shard%d.txt", app.Name, i))
		if err := os.WriteFile(path, sh, 0o644); err != nil {
			return fail(1, err)
		}
		total += units.Bytes(len(sh))
		fmt.Fprintf(stdout, "wrote %s (%v)\n", path, units.Bytes(len(sh)))
	}
	fmt.Fprintf(stdout, "%s: %v total across %d shards (target %v)\n", app.Name, total, n, target)
	return 0
}
