package ssd

import (
	"bytes"
	"fmt"
	"testing"

	"morpheus/internal/morphc"
	"morpheus/internal/mvm"
	"morpheus/internal/serial"
)

// byteCountAppSrc returns the number of object bytes it emitted, the value
// a sampled instance reports as its MDEINIT result, so exact and sampled
// return values are comparable.
const byteCountAppSrc = `
StorageApp int app(ms_stream s) {
	int v;
	int n = 0;
	while (ms_scanf(s, "%d", &v) == 1) { ms_emit_i32(v); n++; }
	ms_memcpy();
	return n * 4;
}
`

// TestSampledRigDiscardMatchesExact runs a sampled instance whose timing
// rig pauses on a full output buffer hundreds of times, and so discards
// its output in place each time. Its sample window covers the whole
// stream, so the rig interprets every byte the exact instance does.
//
// Against the exact instance it must agree on the data plane, outBytes,
// retVal and cpb (the rig's cycles over its consumed bytes). The charged
// cycles of a sampled instance are cpb-extrapolated per chunk, so they are
// checked bit-for-bit against a sampled instance whose rig never pauses.
func TestSampledRigDiscardMatchesExact(t *testing.T) {
	prog, err := morphc.Compile(byteCountAppSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	var text []byte
	for i := 0; i < 2000; i++ {
		text = fmt.Appendf(text, "%d", i*7919-5000000)
		if i%5 == 4 {
			text = append(text, '\n')
		} else {
			text = append(text, ' ')
		}
	}
	const chunkSize = 97 // never record-aligned
	sampleWindow := int64(len(text))

	type result struct {
		in  *instance
		out []byte
	}
	run := func(sampled bool, threshold int) result {
		t.Helper()
		cfg := mvm.DefaultConfig()
		cfg.OutputFlushThreshold = threshold
		in, err := newInstance(1, 0, prog, nil, intNative(), sampled, cfg, mvm.DefaultCostModel(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		var st stagingBufs
		for off := 0; off < len(text); off += chunkSize {
			end := min(off+chunkSize, len(text))
			// Hand over a private copy and clobber it afterwards, as a
			// reused DMA buffer would: nothing may keep aliasing it.
			chunk := append([]byte(nil), text[off:end]...)
			res, err := in.processChunk(chunk, end == len(text), sampleWindow, &st)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.out...)
			for i := range chunk {
				chunk[i] = '#'
			}
		}
		if !in.finished {
			t.Fatalf("sampled=%v threshold=%d: instance not finished", sampled, threshold)
		}
		return result{in, out}
	}

	const small = 16
	exact := run(false, small)
	rig := run(true, small)
	quiet := run(true, 1<<20)
	if n := len(exact.out); n/small < 100 {
		t.Fatalf("only %d output bytes: the rig would pause fewer than 100 times", n)
	}

	if !bytes.Equal(rig.out, exact.out) {
		t.Fatalf("data plane differs: sampled %d bytes, exact %d bytes", len(rig.out), len(exact.out))
	}
	if rig.in.outBytes != exact.in.outBytes || rig.in.retVal != exact.in.retVal {
		t.Fatalf("outBytes/retVal: sampled %d/%d, exact %d/%d",
			rig.in.outBytes, rig.in.retVal, exact.in.outBytes, exact.in.retVal)
	}
	if want := exact.in.vm.Cycles() / float64(exact.in.vm.Consumed()); rig.in.cpb != want {
		t.Fatalf("cpb: sampled rig %v, exact VM %v", rig.in.cpb, want)
	}
	if rig.in.vm != nil {
		t.Fatal("timing rig still attached after it halted")
	}

	if rig.in.cpb != quiet.in.cpb || rig.in.cycles != quiet.in.cycles ||
		rig.in.retVal != quiet.in.retVal || rig.in.outBytes != quiet.in.outBytes ||
		!bytes.Equal(rig.out, quiet.out) {
		t.Fatalf("pausing rig differs from non-pausing rig: cpb %v/%v cycles %v/%v retVal %d/%d outBytes %d/%d",
			rig.in.cpb, quiet.in.cpb, rig.in.cycles, quiet.in.cycles,
			rig.in.retVal, quiet.in.retVal, rig.in.outBytes, quiet.in.outBytes)
	}
}

// TestAlignCarryNeverAliasesChunk: the record aligner an instance runs
// may return a slice of the chunk it was given or of the controller's
// shared scratch buffer, but the carried partial record must be its own
// copy, or overwriting either buffer would corrupt the next call's record.
func TestAlignCarryNeverAliasesChunk(t *testing.T) {
	in := &instance{}
	var scratch []byte
	steps := []struct {
		chunk       string
		final       bool
		want, carry string
	}{
		{"12 34\n56", false, "12 34\n", "56"},
		{"7 8", false, "", "567 8"},
		{"9\n", false, "567 89\n", ""},
		{"10 11\n", false, "10 11\n", ""},
		{"12", false, "", "12"},
		{" 13", true, "12 13", ""},
	}
	for i, s := range steps {
		chunk := []byte(s.chunk)
		got := string(serial.AlignRecords(&in.carry, &scratch, chunk, s.final))
		for j := range chunk {
			chunk[j] = '#'
		}
		for j := range scratch {
			scratch[j] = '#'
		}
		if got != s.want || string(in.carry) != s.carry {
			t.Fatalf("step %d: align(%q) = %q carry %q, want %q carry %q", i, s.chunk, got, in.carry, s.want, s.carry)
		}
	}
}
