package units

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000us"},
		{4 * Millisecond, "4.000ms"},
		{5 * Second, "5.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d: got %q want %q", int64(c.d), got, c.want)
		}
	}
}

func TestBandwidthTimeFor(t *testing.T) {
	bw := Bandwidth(1e9) // 1 GB/s
	if d := bw.TimeFor(1e9); d != Second {
		t.Fatalf("1GB at 1GB/s = %v", d)
	}
	if d := bw.TimeFor(0); d != 0 {
		t.Fatalf("zero bytes = %v", d)
	}
	if d := Bandwidth(0).TimeFor(100); d != 0 {
		t.Fatalf("zero bandwidth must not divide by zero: %v", d)
	}
}

func TestFrequencyCycles(t *testing.T) {
	f := 2.5 * GHz
	if d := f.Cycles(2.5e9); d != Second {
		t.Fatalf("2.5G cycles at 2.5GHz = %v", d)
	}
	if ct := f.CycleTime(); ct != 400*Picosecond {
		t.Fatalf("cycle time = %v, want 400ps", ct)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1000)
	b := a.Add(500)
	if b != 1500 {
		t.Fatalf("add: %v", b)
	}
	if b.Sub(a) != 500 {
		t.Fatalf("sub: %v", b.Sub(a))
	}
}

func TestPowerEnergy(t *testing.T) {
	p := Power(100)
	if e := p.EnergyOver(2 * Second); e != 200 {
		t.Fatalf("100W for 2s = %v J", e)
	}
}

func TestBytesString(t *testing.T) {
	if s := (3 * GiB).String(); s != "3.00GiB" {
		t.Fatalf("got %q", s)
	}
	if s := Bytes(512).String(); s != "512B" {
		t.Fatalf("got %q", s)
	}
	// The fmt expressions String used to run, at and around each unit
	// boundary and at the int64 extremes.
	old := func(b Bytes) string {
		switch {
		case b >= GiB:
			return fmt.Sprintf("%.2fGiB", float64(b)/float64(GiB))
		case b >= MiB:
			return fmt.Sprintf("%.2fMiB", float64(b)/float64(MiB))
		case b >= KiB:
			return fmt.Sprintf("%.2fKiB", float64(b)/float64(KiB))
		default:
			return fmt.Sprintf("%dB", int64(b))
		}
	}
	for _, b := range []Bytes{0, 1, -1, KiB - 1, KiB, KiB + 5, MiB - 1, MiB, 3*MiB + 5243, GiB - 1, GiB, 1 << 62, math.MaxInt64, math.MinInt64} {
		if got, want := b.String(), old(b); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", int64(b), got, want)
		}
	}
}

// TestBandwidthRoundTripProperty: time for n bytes at bw, multiplied back,
// recovers approximately n.
func TestBandwidthRoundTripProperty(t *testing.T) {
	f := func(kb uint16, mbps uint8) bool {
		if mbps == 0 {
			return true
		}
		n := Bytes(kb) * KiB
		bw := Bandwidth(mbps) * MBps
		d := bw.TimeFor(n)
		back := float64(bw) * d.Seconds()
		diff := back - float64(n)
		if diff < 0 {
			diff = -diff
		}
		return diff <= float64(n)/1000+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDurationOfMonotonic: DurationOf is monotone and non-negative.
func TestDurationOfMonotonic(t *testing.T) {
	f := func(a, b float64) bool {
		if a < 0 || b < 0 || a > 1e15 || b > 1e15 || a != a || b != b {
			return true
		}
		da, db := DurationOf(a), DurationOf(b)
		if a <= b {
			return da <= db
		}
		return da >= db
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRenderings(t *testing.T) {
	cases := []struct{ got, want string }{
		{(2 * GBps).String(), "2.00GB/s"},
		{(158 * MBps).String(), "158.0MB/s"},
		{Bandwidth(10).String(), "10B/s"},
		{(2.5 * GHz).String(), "2.50GHz"},
		{(830 * MHz).String(), "830MHz"},
		{Frequency(50).String(), "50Hz"},
		{Power(10.5).String(), "10.50W"},
		{Energy(3.25).String(), "3.25J"},
		{(5 * MiB).String(), "5.00MiB"},
		{(3 * KiB).String(), "3.00KiB"},
		{Time(2 * Millisecond).String(), "2.000ms"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

func TestDurationOfSaturates(t *testing.T) {
	if d := DurationOf(-5); d != 0 {
		t.Fatalf("negative seconds = %v", d)
	}
	if d := DurationOf(1e30); d <= 0 {
		t.Fatalf("huge seconds must saturate positive, got %v", d)
	}
}

func TestCycleTimeZeroFrequency(t *testing.T) {
	if Frequency(0).CycleTime() != 0 || Frequency(0).Cycles(100) != 0 {
		t.Fatal("zero frequency must not divide by zero")
	}
	if (1 * GHz).Cycles(-5) != 0 {
		t.Fatal("negative cycles must clamp to zero")
	}
}
