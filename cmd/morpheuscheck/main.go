// Command morpheuscheck is the perf-regression gate: it compares a
// candidate metrics artifact (morpheusbench -metrics-out foo.json, or a
// -timeseries-out artifact) against a trusted baseline and exits
// nonzero when any metric moved past its tolerance.
//
// Usage:
//
//	morpheuscheck baseline.json candidate.json                # byte-exact
//	morpheuscheck -rule 'histograms.*.p99:0.05:up' \
//	              -rule 'counters.*:0' \
//	              -default-tol 0.01 baseline.json candidate.json
//
// Rules are pattern:tol[:up|down|both|off] and are checked in order —
// the first pattern matching a metric's dotted path (for example
// "histograms.nvme.MREAD.latency_ps.p99") governs it; unmatched metrics
// use -default-tol with direction both. "up" flags only increases
// (latency-like), "down" only decreases (throughput-like), "off"
// exempts the metric. A metric present in the baseline but missing from
// the candidate fails the gate; a metric only in the candidate is a
// warning.
//
// Exit status: 0 when the gate passes, 1 on regressions, 2 on usage or
// artifact-parse errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"morpheus/internal/gate"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, prints the gate report to
// stdout and returns the exit status (0 pass, 1 regressions, 2 for a
// malformed command line or an unreadable artifact).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("morpheuscheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var rules []gate.Rule
	fs.Func("rule", "pattern:tol[:up|down|both|off] — per-metric tolerance, first match wins (repeatable)", func(s string) error {
		r, err := gate.ParseRule(s)
		if err != nil {
			return err
		}
		rules = append(rules, r)
		return nil
	})
	defaultTol := fs.Float64("default-tol", 0, "relative tolerance for metrics no rule matches (0 = byte-exact)")
	quiet := fs.Bool("q", false, "print only the verdict line")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "morpheuscheck: "+format+"\n", args...)
		return 2
	}
	if !gate.ValidTolerance(*defaultTol) {
		return fail("-default-tol must be finite and >= 0, got %v", *defaultTol)
	}
	if fs.NArg() != 2 {
		return fail("usage: morpheuscheck [flags] baseline.json candidate.json")
	}
	var arts [2]gate.Artifact
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return fail("%v", err)
		}
		arts[i], err = gate.Load(f)
		f.Close()
		if err != nil {
			return fail("%s: %v", path, err)
		}
	}
	rep := gate.Compare(arts[0], arts[1], rules, *defaultTol)
	if *quiet {
		if rep.OK() {
			fmt.Fprintf(stdout, "ok: %d metrics within tolerance\n", rep.Checked)
		} else {
			fmt.Fprintf(stdout, "gate failed: %d regression(s) across %d checked metrics\n",
				len(rep.Regressions), rep.Checked)
		}
	} else {
		rep.Render(stdout)
	}
	if !rep.OK() {
		return 1
	}
	return 0
}
