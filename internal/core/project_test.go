package core

import (
	"bytes"
	"testing"
)

// FuzzAppendProjected feeds appendProjected a stream of chunks, each
// (input bytes, output bytes) taken from spec, with the watermark the
// runtime passes: the input consumed so far, clamped to total. The result
// must equal plain append's, and every call may reallocate at most once.
// With steady set, every chunk has the same output/input ratio num/den
// and the first output sizes the buffer for the whole stream. With short
// set, total is half the first chunk's input, as when a file ends inside
// its first command.
func FuzzAppendProjected(f *testing.F) {
	f.Add([]byte{9, 8, 9, 8, 9, 8, 9, 8}, uint8(0x8), false, false)
	f.Add([]byte{0, 5, 3, 0, 7, 7, 0, 0, 4, 1}, uint8(0), false, false) // upto == 0 first
	f.Add([]byte{200, 40, 17, 0, 200, 40}, uint8(0x23), true, false)
	f.Add([]byte{12, 30, 1, 250, 0, 3}, uint8(0), false, true)
	f.Add([]byte{0, 0, 5, 5}, uint8(0), true, false)
	f.Fuzz(func(t *testing.T, spec []byte, ratio uint8, steady, short bool) {
		num, den := int(ratio&0xF), int(ratio>>4)+1
		type chunk struct{ in, out int }
		chunks := make([]chunk, 0, len(spec)/2)
		total := 0
		for i := 0; i+1 < len(spec); i += 2 {
			c := chunk{int(spec[i]), int(spec[i+1])}
			if steady {
				c = chunk{den * int(spec[i]), num * int(spec[i])}
			}
			chunks = append(chunks, c)
			total += c.in
		}
		if short && len(chunks) > 0 {
			total = chunks[0].in / 2
		}
		var got, want []byte
		offset, reallocs, firstUpto := 0, 0, 0
		for k, c := range chunks {
			offset += c.in
			upto := min(offset, total)
			p := bytes.Repeat([]byte{byte(k + 1)}, c.out)
			before := cap(got)
			got = appendProjected(got, p, int64(upto), int64(total))
			want = append(want, p...)
			if cap(got) != before {
				if reallocs == 0 {
					firstUpto = upto
				}
				reallocs++
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendProjected gave %d bytes, plain append %d; contents differ", len(got), len(want))
		}
		if reallocs > len(chunks) {
			t.Fatalf("%d reallocations for %d chunks", reallocs, len(chunks))
		}
		if steady && !short {
			// A projection made once the input is complete is exact.
			wantReallocs, wantCap := 0, 0
			if len(want) > 0 {
				wantReallocs, wantCap = 1, len(want)+len(want)>>projectionSlack
				if firstUpto == total {
					wantCap = len(want)
				}
			}
			if reallocs != wantReallocs || cap(got) != wantCap {
				t.Fatalf("steady ratio %d/%d: %d reallocations to cap %d, want %d to cap %d",
					num, den, reallocs, cap(got), wantReallocs, wantCap)
			}
		}
	})
}

// TestAppendProjectedOverflowFallsBack covers projections past int64 and
// past half of int: both fall back to exactly what is needed.
func TestAppendProjectedOverflowFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name        string
		need        int
		upto, total int64
	}{
		{"quotient past 64 bits", 1024, 1, 1 << 60},
		{"quotient past MaxInt/2", 1, 1, 1 << 62},
	} {
		got := appendProjected(nil, make([]byte, tc.need), tc.upto, tc.total)
		if len(got) != tc.need || cap(got) != tc.need {
			t.Errorf("%s: len %d cap %d, want both %d", tc.name, len(got), cap(got), tc.need)
		}
	}
}
