package exp

import (
	"testing"

	"morpheus/internal/flash"
)

// TestExperimentDeterminism is the regression the whole methodology rests
// on: two runs of an experiment with identical options — including a
// nonzero fault model, whose injected errors are hash-derived, not drawn
// from wall-clock randomness — must render bit-identical tables.
func TestExperimentDeterminism(t *testing.T) {
	opts := testOptions()
	opts.Faults = flash.FaultModel{CorrectablePerM: 200_000, Seed: 7}

	a, err := RunApps(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunApps(opts)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Tables(), b.Tables()
	for i, fig := range appsFigures {
		t.Run(fig, func(t *testing.T) {
			if sa, sb := ta[i].String(), tb[i].String(); sa != sb {
				t.Fatalf("%s runs diverged:\nfirst:\n%s\nsecond:\n%s", fig, sa, sb)
			}
		})
	}
}

// TestFaultCampaignDeterminism repeats the E14 campaign — retries,
// fallbacks, and all — and requires identical output.
func TestFaultCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign is the suite's heaviest experiment")
	}
	opts := testOptions()
	a, err := RunFaults(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaults(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := a.Table().String(), b.Table().String(); sa != sb {
		t.Fatalf("fault campaigns diverged:\nfirst:\n%s\nsecond:\n%s", sa, sb)
	}
}
