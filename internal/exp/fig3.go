package exp

import (
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/host"
	"morpheus/internal/units"
)

// Fig3Cell is one bar of Figure 3: effective deserialization bandwidth
// (object bytes produced per second per I/O thread) for one application on
// one storage medium at one CPU frequency.
type Fig3Cell struct {
	App       string
	Medium    string
	CPUFreq   units.Frequency
	Effective units.Bandwidth
}

// Fig3Result is the whole figure.
type Fig3Result struct {
	Cells []Fig3Cell
	// Ratios summarize the paper's two claims at 2.5 GHz: NVMe/HDD and
	// RamDrive/NVMe.
	NVMeOverHDD25    float64
	RAMOverNVMe25    float64
	NVMeOverHDD12    float64
	Slowdown12over25 float64
}

// fig3Media lists the media in the figure's order.
var fig3Media = []string{"NVMe SSD", "RamDrive", "HDD"}

// RunFig3 regenerates Figure 3: the same conventional deserializer fed
// from the NVMe SSD, a RAM drive, and a hard drive, at 2.5 and 1.2 GHz —
// demonstrating that object deserialization is CPU-bound.
func RunFig3(o Options) (*Fig3Result, error) {
	freqs := []units.Frequency{2.5 * units.GHz, 1.2 * units.GHz}
	perApp, err := runApps(o, func(app *apps.App, po Options) ([]Fig3Cell, error) {
		var cells []Fig3Cell
		for _, f := range freqs {
			for _, medium := range fig3Media {
				bw, err := fig3Run(app, medium, f, po)
				if err != nil {
					return nil, fmt.Errorf("fig3 %s/%s: %w", app.Name, medium, err)
				}
				cells = append(cells, Fig3Cell{
					App: app.Name, Medium: medium, CPUFreq: f, Effective: bw,
				})
			}
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{}
	sums := [2]map[string]float64{{}, {}}
	for _, cells := range perApp {
		for k, c := range cells {
			// Cells run frequency-major: k/len(fig3Media) indexes freqs.
			sums[k/len(fig3Media)][c.Medium] += float64(c.Effective)
		}
		res.Cells = append(res.Cells, cells...)
	}
	n := float64(len(perApp))
	res.NVMeOverHDD25 = sums[0]["NVMe SSD"] / sums[0]["HDD"]
	res.RAMOverNVMe25 = sums[0]["RamDrive"] / sums[0]["NVMe SSD"]
	res.NVMeOverHDD12 = sums[1]["NVMe SSD"] / sums[1]["HDD"]
	res.Slowdown12over25 = (sums[0]["NVMe SSD"] / n) / (sums[1]["NVMe SSD"] / n)
	return res, nil
}

// fig3Run measures one cell: single I/O thread over the first shard.
func fig3Run(app *apps.App, medium string, freq units.Frequency, o Options) (units.Bandwidth, error) {
	sys, err := buildSystem(o, false)
	if err != nil {
		return 0, err
	}
	sys.Host.SetFrequency(freq)
	// One thread's worth of data.
	target := units.Bytes(float64(app.PaperInputSize) * o.scale() / float64(app.Threads))
	shard := app.Gen(target, 1, o.Seed)[0]

	var done units.Time
	var objBytes int
	switch medium {
	case "NVMe SSD":
		f, err := sys.WriteFile(app.Name+"/fig3", shard)
		if err != nil {
			return 0, err
		}
		sys.ResetTimers()
		res, err := sys.DeserializeConventional(0, f, app.HostParser(), app.Spec, 0, nil)
		if err != nil {
			return 0, err
		}
		done, objBytes = res.Done, len(res.Out)
	case "RamDrive":
		res, err := sys.DeserializeFromMedium(0, host.NewRAMDrive(sys.Host), shard, app.HostParser(), app.Spec, 0, nil)
		if err != nil {
			return 0, err
		}
		done, objBytes = res.Done, len(res.Out)
	case "HDD":
		res, err := sys.DeserializeFromMedium(0, host.NewHDD(sys.Host), shard, app.HostParser(), app.Spec, 0, nil)
		if err != nil {
			return 0, err
		}
		done, objBytes = res.Done, len(res.Out)
	default:
		return 0, fmt.Errorf("fig3: unknown medium %q", medium)
	}
	if done == 0 {
		return 0, fmt.Errorf("fig3: zero-duration run")
	}
	return units.Bandwidth(float64(objBytes) / units.Duration(done).Seconds()), nil
}

// Table renders the figure.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title: "Figure 3 — effective deserialization bandwidth per I/O thread",
		Header: []string{"app",
			"NVMe@2.5GHz", "Ram@2.5GHz", "HDD@2.5GHz",
			"NVMe@1.2GHz", "Ram@1.2GHz", "HDD@1.2GHz"},
	}
	byApp := map[string][]string{}
	var order []string
	for _, c := range r.Cells {
		if _, ok := byApp[c.App]; !ok {
			order = append(order, c.App)
			byApp[c.App] = []string{c.App}
		}
		byApp[c.App] = append(byApp[c.App], c.Effective.String())
	}
	for _, app := range order {
		t.AddRow(byApp[app]...)
	}
	t.Note("NVMe/HDD at 2.5GHz = %s (paper: ~1.5x); RamDrive/NVMe at 2.5GHz = %s (paper: ~1.0 — CPU-bound)",
		f2(r.NVMeOverHDD25), f2(r.RAMOverNVMe25))
	t.Note("NVMe/HDD at 1.2GHz = %s (paper: marginal differences); 2.5GHz/1.2GHz on NVMe = %s (significant degradation)",
		f2(r.NVMeOverHDD12), f2(r.Slowdown12over25))
	return t
}
