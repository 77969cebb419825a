// Quickstart: deserialize an ASCII integer file the conventional way and
// with Morpheus-SSD, verify both produce the same objects, and compare
// simulated time — the paper's core experiment in ~60 lines.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"morpheus/internal/core"
	"morpheus/internal/serial"
	"morpheus/internal/workload"
)

// The Figure 7 StorageApp, verbatim in MorphC.
const inputApplet = `
StorageApp int inputapplet(ms_stream stream) {
	int v;
	int count = 0;
	while (ms_scanf(stream, "%d", &v) == 1) {
		ms_emit_i32(v);
		count = count + 1;
	}
	ms_memcpy();
	return count;
}
`

func main() {
	showTrace := flag.Bool("trace", false, "print the NVMe/StorageApp event timeline")
	flag.Parse()

	// 1. Build the simulated testbed (§VI-A: quad-core Xeon, NVMe SSD
	//    with embedded cores, PCIe 3.0 fabric).
	cfg := core.DefaultSystemConfig()
	cfg.WithGPU = false
	sys, err := core.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Stage a 4 MiB text file of integers on the SSD.
	data := workload.IntArray(400_000, 1<<30, 8, 1, 42)[0]
	file, err := sys.WriteFile("ints.txt", data)
	if err != nil {
		log.Fatal(err)
	}
	sys.ResetTimers()

	// 3. Conventional model (Figure 1): READ + parse on the host CPU.
	parser := serial.TokenParser{Kind: serial.FieldInt32}
	conv, err := sys.DeserializeConventional(0, file,
		func(chunk []byte, final bool) []byte { return parser.Parse(chunk, final) },
		core.ParseSpec{}, 0, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Morpheus model (Figure 4): MINIT + MREAD train + MDEINIT; the
	//    StorageApp runs on the SSD's embedded core.
	app := &core.StorageApp{
		Name:   "inputapplet",
		Source: inputApplet,
		Native: func(dst, chunk []byte, final bool, args []int64) ([]byte, error) {
			return serial.AppendTokens(dst, chunk, serial.FieldInt32)
		},
	}
	tracer := sys.EnableTrace(4096)
	inv, err := sys.InvokeStorageApp(0, core.InvokeOptions{App: app, File: file})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Same objects, less time.
	if !bytes.Equal(conv.Out, inv.Out) {
		log.Fatal("object streams differ!")
	}
	vals := serial.DecodeI32(inv.Out)
	fmt.Printf("input:          %d bytes of text → %d int32 objects (%d bytes)\n",
		len(data), len(vals), len(inv.Out))
	fmt.Printf("conventional:   %v\n", conv.Done)
	fmt.Printf("morpheus-ssd:   %v  (%d NVMe commands, %.2f SSD cycles/byte)\n",
		inv.Done, inv.Commands, inv.CyclesPerByte)
	fmt.Printf("deserialization speedup: %.2fx\n", float64(conv.Done)/float64(inv.Done))

	if *showTrace {
		fmt.Println("\nMorpheus command pipeline (per-track utilization):")
		tracer.WriteGantt(os.Stdout, 72)
	}
}
