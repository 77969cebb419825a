package exp

import (
	"strings"
	"testing"
)

// TestRunArrayRejectsBadConfig: a negative fleet or load setting is an
// error naming the bad value, not a silent fall-back to the default
// (zero alone means "default").
func TestRunArrayRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		sw   ArraySweep
		want string
	}{
		{"shards", ArraySweep{Shards: -3}, "got -3/0"},
		{"replicas", ArraySweep{Shards: 4, Replicas: -1}, "got 4/-1"},
		{"tenants", ArraySweep{Tenants: -1}, "got -1/0/0"},
		{"requests", ArraySweep{Requests: -5}, "got 0/-5/0"},
		{"objects", ArraySweep{Objects: -2}, "got 0/0/-2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := testOptions()
			o.Parallel = 1
			_, err := RunArray(o, tc.sw)
			if err == nil {
				t.Fatalf("RunArray(%+v) accepted a bad config", tc.sw)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad value (want %q)", err, tc.want)
			}
		})
	}
}
