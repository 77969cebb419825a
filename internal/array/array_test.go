package array

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/units"
)

// testBuild is the shard constructor every test fleet uses: a GPU-less
// system with a small MDTS so bench-scale objects still split into
// multi-command trains.
func testBuild(t *testing.T) func(int) (*core.System, error) {
	t.Helper()
	return func(int) (*core.System, error) {
		cfg := core.DefaultSystemConfig()
		cfg.WithGPU = false
		cfg.SSD.MDTS = 8 * units.KiB
		return core.NewSystem(cfg)
	}
}

// testFleet builds an array, stages objects objects of the grep workload,
// and resets timers to the measurement boundary.
func testFleet(t *testing.T, shards, replicas, objects int) (*Array, *apps.App) {
	t.Helper()
	a, err := New(Config{Shards: shards, Replicas: replicas}, testBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.ByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		data := app.Gen(16*units.KiB, 1, 1000+int64(i))
		if err := a.StageObject(ObjectName(i), data[0]); err != nil {
			t.Fatal(err)
		}
	}
	a.ResetTimers()
	return a, app
}

func testTraffic(app *apps.App, objects int, seed int64) TrafficConfig {
	return TrafficConfig{
		Tenants:  32,
		Requests: 40,
		Objects:  objects,
		Mean:     20 * units.Microsecond,
		Mix:      MixPoisson,
		Seed:     seed,
		App:      app.StorageApp(),
		Parser:   app.HostParser,
		Spec:     app.Spec,
	}
}

// TestPlacementDeterministicAndSpread: placement is a pure function of
// the name (identical across independently built fleets), returns the
// requested number of distinct shards, and spreads primaries across the
// whole fleet rather than clustering.
func TestPlacementDeterministicAndSpread(t *testing.T) {
	a, err := New(Config{Shards: 4, Replicas: 2}, testBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Shards: 4, Replicas: 2}, testBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	primaries := make([]int, 4)
	for i := 0; i < 64; i++ {
		name := ObjectName(i)
		pa, pb := a.Place(name), b.Place(name)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("%s placed at %v on one fleet, %v on another", name, pa, pb)
		}
		if len(pa) != 2 {
			t.Fatalf("%s has %d holders, want 2", name, len(pa))
		}
		if pa[0] == pa[1] {
			t.Fatalf("%s replicated onto the same shard twice: %v", name, pa)
		}
		primaries[pa[0]]++
	}
	for s, n := range primaries {
		if n == 0 {
			t.Errorf("shard %d is primary for none of 64 objects (spread %v)", s, primaries)
		}
	}
}

// TestArrivalGenerators: same (mix, mean, seed) reproduces the same
// stream; streams are nondecreasing; and every mix holds the configured
// long-run mean (the bursty/diurnal modulation must not change offered
// load).
func TestArrivalGenerators(t *testing.T) {
	const mean = 10 * units.Microsecond
	const n = 20000
	for _, mix := range []Mix{MixPoisson, MixBursty, MixDiurnal} {
		t.Run(mix.String(), func(t *testing.T) {
			g1 := NewArrivalGen(mix, mean, 42)
			g2 := NewArrivalGen(mix, mean, 42)
			g3 := NewArrivalGen(mix, mean, 43)
			var last units.Time
			var differs bool
			for i := 0; i < n; i++ {
				v1, v2, v3 := g1.Next(), g2.Next(), g3.Next()
				if v1 != v2 {
					t.Fatalf("sample %d: same seed diverged (%d vs %d)", i, v1, v2)
				}
				if v1 != v3 {
					differs = true
				}
				if v1 < last {
					t.Fatalf("sample %d: arrivals went backwards (%d after %d)", i, v1, last)
				}
				last = v1
			}
			if !differs {
				t.Error("different seeds produced identical streams")
			}
			got := float64(last) / n
			want := float64(mean)
			if got < 0.85*want || got > 1.15*want {
				t.Errorf("long-run mean interarrival = %.0f ps, want %.0f ps ±15%%", got, want)
			}
		})
	}
}

// TestKillShardServesViaReplica is the whole-shard-loss regression for
// the degraded-mode routing fix: with a shard's media gone, requests
// routed to it must be served through a replica re-fetch charged to the
// surviving holder — and with every holder gone, fail hard instead of
// silently serving from the dead shard's local staging copy.
func TestKillShardServesViaReplica(t *testing.T) {
	const objects = 8
	a, app := testFleet(t, 4, 2, objects)
	name := ObjectName(0)
	holders := a.Place(name)
	primary, backup := holders[0], holders[1]
	a.KillShard(primary)

	sh := a.Shards[primary]
	f, err := sh.Sys.OpenFile(name)
	if err != nil {
		t.Fatal(err)
	}
	invoke := func() (*core.InvokeResult, error) {
		return sh.Sys.InvokeStorageApp(0, core.InvokeOptions{
			App:  app.StorageApp(),
			File: f,
			Fallback: &core.Fallback{
				Parser: app.HostParser,
				Spec:   app.Spec,
			},
		})
	}
	inv, err := invoke()
	if err != nil {
		t.Fatalf("request to the dead primary failed outright: %v", err)
	}
	if inv.Path != core.PathReplicaFallback {
		t.Fatalf("served via %v, want %v", inv.Path, core.PathReplicaFallback)
	}
	if n := a.Shards[backup].Sys.Metrics.Counters().Get("array.replica.remote_reads"); n != 1 {
		t.Errorf("backup shard %d remote_reads = %d, want 1", backup, n)
	}
	if n := sh.Sys.Metrics.Counters().Get("array.replica.remote_reads"); n != 0 {
		t.Errorf("dead primary charged %d remote reads to itself", n)
	}

	// Kill the backup too: the whole replica set is gone, and the fleet
	// must refuse rather than quietly serve the dead primary's local copy.
	a.KillShard(backup)
	if _, err := invoke(); err == nil {
		t.Fatal("request served with every holder down")
	}
}

// TestTrafficRejectsBadConfig: every out-of-range load setting is an
// error that reports all three values.
func TestTrafficRejectsBadConfig(t *testing.T) {
	a, app := testFleet(t, 2, 1, 1)
	for _, mut := range []func(*TrafficConfig){
		func(tc *TrafficConfig) { tc.Tenants = 0 },
		func(tc *TrafficConfig) { tc.Requests = -1 },
		func(tc *TrafficConfig) { tc.Objects = 0 },
	} {
		tc := testTraffic(app, 1, 7)
		mut(&tc)
		_, err := RunTrafficParallel(a, tc, 1)
		if err == nil {
			t.Fatalf("accepted tenants/requests/objects = %d/%d/%d", tc.Tenants, tc.Requests, tc.Objects)
		}
		if want := fmt.Sprintf("got %d/%d/%d", tc.Tenants, tc.Requests, tc.Objects); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not report %q", err, want)
		}
	}
}

// TestTrafficDeterministic: two fleets, same seed, same traffic — byte
// and value identical results.
func TestTrafficDeterministic(t *testing.T) {
	const objects = 8
	a, app := testFleet(t, 3, 2, objects)
	b, _ := testFleet(t, 3, 2, objects)
	ra, err := RunTrafficParallel(a, testTraffic(app, objects, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunTrafficParallel(b, testTraffic(app, objects, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("same seed, different outcomes:\n%+v\nvs\n%+v", ra, rb)
	}
	if ra.Admitted == 0 {
		t.Fatal("traffic admitted nothing")
	}
}

// TestArrayResetReuse is the reuse battery: running traffic, resetting
// the fleet, and running again must reproduce a fresh fleet's results
// exactly — no stale ledger intervals, event-pool handles, or metrics
// surviving the boundary. The CI race battery runs this under -race.
func TestArrayResetReuse(t *testing.T) {
	const objects = 8
	fresh, app := testFleet(t, 3, 2, objects)
	want, err := RunTrafficParallel(fresh, testTraffic(app, objects, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := fleetMetricsJSON(t, fresh)

	reused, _ := testFleet(t, 3, 2, objects)
	if _, err := RunTrafficParallel(reused, testTraffic(app, objects, 11), 1); err != nil {
		t.Fatal(err)
	}
	reused.ResetTimers()
	got, err := RunTrafficParallel(reused, testTraffic(app, objects, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reused fleet diverged from fresh fleet:\n%+v\nvs\n%+v", want, got)
	}
	if gotJSON := fleetMetricsJSON(t, reused); !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("reused fleet metrics differ from a fresh fleet's")
	}
}
