package serial

import (
	"encoding/binary"
	"math"
	"strconv"
)

// AppendIntText appends the decimal text of v plus a separator.
func AppendIntText(dst []byte, v int64, sep byte) []byte {
	dst = strconv.AppendInt(dst, v, 10)
	return append(dst, sep)
}

// AppendFloatText appends the shortest-round-trip text of v plus a
// separator.
func AppendFloatText(dst []byte, v float64, sep byte) []byte {
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	return append(dst, sep)
}

// AppendFloatTextPrec appends v with the given significant-digit count.
func AppendFloatTextPrec(dst []byte, v float64, prec int, sep byte) []byte {
	dst = strconv.AppendFloat(dst, v, 'g', prec, 64)
	return append(dst, sep)
}

// EncodeIntsText renders vals as whitespace-separated decimal text with a
// newline every perLine values (records are lines, as the chunk-alignment
// contract requires). perLine <= 0 defaults to 8.
func EncodeIntsText(vals []int64, perLine int) []byte {
	if perLine <= 0 {
		perLine = 8
	}
	out := make([]byte, 0, len(vals)*8)
	for i, v := range vals {
		sep := byte(' ')
		if (i+1)%perLine == 0 || i == len(vals)-1 {
			sep = '\n'
		}
		out = AppendIntText(out, v, sep)
	}
	return out
}

// EncodeFloatsText renders vals as float text, one line per perLine
// values.
func EncodeFloatsText(vals []float64, perLine int) []byte {
	if perLine <= 0 {
		perLine = 8
	}
	out := make([]byte, 0, len(vals)*10)
	for i, v := range vals {
		sep := byte(' ')
		if (i+1)%perLine == 0 || i == len(vals)-1 {
			sep = '\n'
		}
		out = AppendFloatText(out, v, sep)
	}
	return out
}

// DecodeI32 interprets b as little-endian int32s.
func DecodeI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// DecodeI64 interprets b as little-endian int64s.
func DecodeI64(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// DecodeF32 interprets b as little-endian float32s.
func DecodeF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// DecodeF64 interprets b as little-endian float64s.
func DecodeF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// EncodeI32 renders vals as little-endian bytes (object arrays for tests).
func EncodeI32(vals []int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// EncodeF64 renders vals as little-endian bytes.
func EncodeF64(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}
