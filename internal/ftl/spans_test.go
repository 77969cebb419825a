package ftl

import (
	"fmt"
	"math"
	"testing"

	"morpheus/internal/flash"
)

// TestMapDetail holds the map span detail, formatted at export, to the
// fmt.Sprintf expression the span site used when it recorded.
func TestMapDetail(t *testing.T) {
	for _, c := range []struct {
		lba LBA
		ppa flash.PPA
	}{
		{0, flash.PPA{}},
		{math.MaxInt64, flash.PPA{Channel: 255, Die: 255, Plane: 255, Block: 1<<20 - 1, Page: 1<<20 - 1}},
		{7, flash.PPA{Channel: 7, Die: 1, Plane: 1, Block: 255, Page: 255}},
	} {
		if got, want := mapDetail(c.lba, c.ppa).String(), fmt.Sprintf("lba=%d %v", c.lba, c.ppa); got != want {
			t.Errorf("detail = %q, want %q", got, want)
		}
	}
}
