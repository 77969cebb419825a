// Package units defines the physical quantities shared by every model in
// the simulator: simulated time, data sizes, bandwidths, frequencies, power
// and energy. All quantities are integer-based where exactness matters
// (time, bytes) and float-based where models are inherently approximate
// (bandwidth, power).
package units

import (
	"fmt"
	"strconv"
)

// Time is a point on the simulated clock, in picoseconds. Picosecond
// resolution keeps single CPU cycles exact (0.4 ns at 2.5 GHz = 400 ps)
// while still covering about 106 days in an int64.
type Time int64

// Duration is a span of simulated time, in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts the duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String renders the duration with an auto-selected unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	case d >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(d)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// String renders the time as a duration since the epoch.
func (t Time) String() string { return Duration(t).String() }

// DurationOf converts floating-point seconds into a Duration, saturating at
// the representable range.
func DurationOf(seconds float64) Duration {
	d := seconds * float64(Second)
	if d > float64(1<<62) {
		return Duration(1 << 62)
	}
	if d < 0 {
		return 0
	}
	return Duration(d)
}

// Bytes is a data size in bytes.
type Bytes int64

// Common sizes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// String renders the size with an auto-selected binary unit.
func (b Bytes) String() string { return string(b.Append(nil)) }

// Append appends String's rendering to dst and returns the extended
// slice.
func (b Bytes) Append(dst []byte) []byte {
	var unit Bytes
	var name string
	switch {
	case b >= GiB:
		unit, name = GiB, "GiB"
	case b >= MiB:
		unit, name = MiB, "MiB"
	case b >= KiB:
		unit, name = KiB, "KiB"
	default:
		return append(strconv.AppendInt(dst, int64(b), 10), 'B')
	}
	return append(strconv.AppendFloat(dst, float64(b)/float64(unit), 'f', 2, 64), name...)
}

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// Common bandwidth units.
const (
	BytePerSec Bandwidth = 1
	KBps                 = 1e3 * BytePerSec
	MBps                 = 1e6 * BytePerSec
	GBps                 = 1e9 * BytePerSec
)

// TimeFor returns the duration required to move n bytes at bandwidth bw.
// A non-positive bandwidth yields zero duration (infinitely fast), which
// keeps degenerate configurations from dividing by zero.
func (bw Bandwidth) TimeFor(n Bytes) Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	return DurationOf(float64(n) / float64(bw))
}

// String renders the bandwidth in MB/s or GB/s.
func (bw Bandwidth) String() string {
	switch {
	case bw >= GBps:
		return fmt.Sprintf("%.2fGB/s", float64(bw)/float64(GBps))
	case bw >= MBps:
		return fmt.Sprintf("%.1fMB/s", float64(bw)/float64(MBps))
	default:
		return fmt.Sprintf("%.0fB/s", float64(bw))
	}
}

// Frequency is a clock rate in hertz.
type Frequency float64

// Common frequencies.
const (
	Hz  Frequency = 1
	KHz           = 1e3 * Hz
	MHz           = 1e6 * Hz
	GHz           = 1e9 * Hz
)

// CycleTime returns the duration of one clock cycle.
func (f Frequency) CycleTime() Duration {
	if f <= 0 {
		return 0
	}
	return DurationOf(1 / float64(f))
}

// Cycles returns the duration of n clock cycles at frequency f.
func (f Frequency) Cycles(n float64) Duration {
	if f <= 0 || n <= 0 {
		return 0
	}
	return DurationOf(n / float64(f))
}

// String renders the frequency in MHz or GHz.
func (f Frequency) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.2fGHz", float64(f)/float64(GHz))
	case f >= MHz:
		return fmt.Sprintf("%.0fMHz", float64(f)/float64(MHz))
	default:
		return fmt.Sprintf("%.0fHz", float64(f))
	}
}

// Power is in watts.
type Power float64

// Energy is in joules.
type Energy float64

// EnergyOver returns the energy consumed by drawing p for d.
func (p Power) EnergyOver(d Duration) Energy { return Energy(float64(p) * d.Seconds()) }

// String renders the power in watts.
func (p Power) String() string { return fmt.Sprintf("%.2fW", float64(p)) }

// String renders the energy in joules.
func (e Energy) String() string { return fmt.Sprintf("%.2fJ", float64(e)) }
