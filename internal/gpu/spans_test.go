package gpu

import (
	"fmt"
	"math"
	"testing"
)

// TestKernelDetail holds the kernel span detail, formatted at export, to
// the fmt.Sprintf expression the span site used when it recorded.
func TestKernelDetail(t *testing.T) {
	for _, c := range []struct {
		name     string
		elements int64
	}{{"pagerank", 1 << 20}, {"k<\"esc\">\\\n", math.MaxInt64}, {"", 0}} {
		if got, want := kernelDetail(c.name, c.elements).String(), fmt.Sprintf("%s elements=%d", c.name, c.elements); got != want {
			t.Errorf("detail = %q, want %q", got, want)
		}
	}
}
