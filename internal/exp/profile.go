package exp

import (
	"morpheus/internal/core"
	"morpheus/internal/serial"
	"morpheus/internal/units"
	"morpheus/internal/workload"
)

// ProfileResult reproduces the §II profiling experiment on the ASCII
// integer microbenchmark: where the conventional parse time goes, how much
// a stripped (overhead-free) parser gains, and the conversion loop's IPC.
type ProfileResult struct {
	InputBytes      units.Bytes
	FullParse       units.Duration
	StrippedParse   units.Duration
	StrippedSpeedup float64
	ConversionShare float64
	ConversionIPC   float64
}

// RunProfile regenerates the §II profile.
func RunProfile(o Options) (*ProfileResult, error) {
	sys, err := buildSystem(o, false)
	if err != nil {
		return nil, err
	}
	size := units.Bytes(16 * float64(units.MiB) * o.scale() * 256)
	if size < 1*units.MiB {
		size = 1 * units.MiB
	}
	data := workload.IntArray(int64(size)/11, 1<<30, 8, 1, o.Seed)[0]
	f, err := sys.WriteFile("profile/ints", data)
	if err != nil {
		return nil, err
	}
	sys.ResetTimers()
	parser := serial.TokenParser{Kind: serial.FieldInt32}
	full, err := sys.DeserializeConventional(0, f,
		func(chunk []byte, final bool) []byte { return parser.Parse(chunk, final) },
		core.ParseSpec{}, 0, nil)
	if err != nil {
		return nil, err
	}
	stripped := sys.StrippedParse(full.Done, data, core.ParseSpec{}, 1).Sub(full.Done)
	pc := sys.Cfg.ParseCosts
	return &ProfileResult{
		InputBytes:      units.Bytes(len(data)),
		FullParse:       units.Duration(full.Done),
		StrippedParse:   stripped,
		StrippedSpeedup: float64(full.Done) / float64(stripped),
		ConversionShare: float64(stripped) / float64(full.Done),
		ConversionIPC:   pc.IPC,
	}, nil
}

// Table renders the profile.
func (r *ProfileResult) Table() *Table {
	t := &Table{
		Title:  "§II profile — conventional parse of an ASCII integer file",
		Header: []string{"metric", "measured", "paper"},
	}
	t.AddRow("input size", r.InputBytes.String(), "-")
	t.AddRow("full conventional parse", r.FullParse.String(), "-")
	t.AddRow("stripped (no OS overhead)", r.StrippedParse.String(), "-")
	t.AddRow("stripped speedup", f2(r.StrippedSpeedup)+"x", f2(PaperStrippedSpeedup)+"x")
	t.AddRow("conversion share of full parse", pct(r.ConversionShare), pct(PaperConversionShare))
	t.AddRow("conversion loop IPC", f2(r.ConversionIPC), f2(PaperConversionIPC))
	return t
}
