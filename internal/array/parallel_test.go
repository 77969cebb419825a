package array

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/nvme"
	"morpheus/internal/ssd"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// windowTraffic spans several conservative windows: 60 arrivals at a
// 200 µs mean cover ~12 ms of virtual time against the ~3 ms lookahead
// window, so degraded-mode re-fetches are forced across window
// boundaries rather than all landing inside the first one.
func windowTraffic(app *apps.App, objects int, seed int64) TrafficConfig {
	return TrafficConfig{
		Tenants:  48,
		Requests: 60,
		Objects:  objects,
		Mean:     200 * units.Microsecond,
		Mix:      MixPoisson,
		Seed:     seed,
		App:      app.StorageApp(),
		Parser:   app.HostParser,
		Spec:     app.Spec,
	}
}

// parArtifacts is everything one windowed run emits that the
// byte-identity contract covers.
type parArtifacts struct {
	res     *TrafficResult
	metrics []byte // per-shard registries, concatenated in shard order
	events  []trace.Event
}

func fleetMetricsJSON(t *testing.T, a *Array) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sh := range a.Shards {
		if err := sh.Sys.Metrics.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// runWindowed builds a fresh fleet, optionally kills the busiest
// primary, and runs the conservative-window executor at the given slot
// count with a tracer attached.
func runWindowed(t *testing.T, slots int, kill bool, seed int64) parArtifacts {
	t.Helper()
	const objects = 8
	a, app := testFleet(t, 4, 2, objects)
	tr := trace.New(0)
	a.AttachTracer(tr)
	if kill {
		// The busiest primary, like the E17 loss point: the shard whose
		// loss degrades the most traffic.
		counts := make([]int, len(a.Shards))
		for i := 0; i < objects; i++ {
			counts[a.Place(ObjectName(i))[0]]++
		}
		best := 0
		for i, c := range counts {
			if c > counts[best] {
				best = i
			}
		}
		a.KillShard(best)
	}
	res, err := RunTrafficParallel(a, windowTraffic(app, objects, seed), slots)
	if err != nil {
		t.Fatal(err)
	}
	return parArtifacts{res: res, metrics: fleetMetricsJSON(t, a), events: tr.Events()}
}

func diffArtifacts(t *testing.T, label string, want, got parArtifacts) {
	t.Helper()
	if !reflect.DeepEqual(want.res, got.res) {
		t.Errorf("%s: traffic result diverged:\n%+v\nvs\n%+v", label, want.res, got.res)
	}
	if !bytes.Equal(want.metrics, got.metrics) {
		t.Errorf("%s: fleet metrics JSON diverged (%d vs %d bytes)", label, len(want.metrics), len(got.metrics))
	}
	if !reflect.DeepEqual(want.events, got.events) {
		t.Errorf("%s: trace diverged: %d vs %d events", label, len(want.events), len(got.events))
	}
}

// TestLookaheadPositive pins the windowing precondition: the retry
// backoff budget that funds the conservative window is provably nonzero
// (3 ms under the default policy: 1 ms + 2 ms before the final attempt).
func TestLookaheadPositive(t *testing.T) {
	if l := ReplicaLookahead(); l != 3*units.Millisecond {
		t.Fatalf("ReplicaLookahead = %v, want 3ms from the default retry policy", l)
	}
}

// inlineTraffic is the test-only serving oracle: it issues the schedule
// strictly in global arrival order on one goroutine, with no windows and
// no parked re-fetches. On a healthy fleet there are no cross-shard
// edges, so the windowed executor must reproduce it exactly.
func inlineTraffic(a *Array, tc TrafficConfig) (*TrafficResult, error) {
	classes, err := checkTraffic(&tc)
	if err != nil {
		return nil, err
	}
	res := newTrafficResult(a, &tc, classes)
	inflight := make([][]units.Time, len(a.Shards))
	scratch := make([][]byte, len(a.Shards))
	metrics := make([]*shardMetrics, len(a.Shards))
	for i, sh := range a.Shards {
		metrics[i] = newShardMetrics(sh.Sys.Metrics, classes)
	}
	refs := map[string][]byte{}
	for _, rq := range buildSchedule(a, &tc, classes) {
		if err := serveOne(a, &tc, classes, metrics[rq.primary], rq, res, &inflight[rq.primary], refs, &scratch[rq.primary]); err != nil {
			return nil, err
		}
	}
	res.FairnessTenants = jainPositive(res.TenantServed)
	res.FairnessShards = jain(res.ShardServed)
	return res, nil
}

// TestParallelTrafficMatchesInlineWhenHealthy: with no degraded-mode
// traffic there are no cross-shard edges at all, and the windowed
// executor must reproduce the inline oracle's results and per-shard
// metrics exactly — the window protocol may only matter for contended
// re-fetch ordering, never for independent serving.
func TestParallelTrafficMatchesInlineWhenHealthy(t *testing.T) {
	const objects = 8
	a, app := testFleet(t, 4, 2, objects)
	inline, err := inlineTraffic(a, windowTraffic(app, objects, 7))
	if err != nil {
		t.Fatal(err)
	}
	inlineJSON := fleetMetricsJSON(t, a)

	b, _ := testFleet(t, 4, 2, objects)
	windowed, err := RunTrafficParallel(b, windowTraffic(app, objects, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Protocol accounting is the only thing the oracle never populates.
	scrubbed := *windowed
	scrubbed.Windows, scrubbed.Rounds = 0, 0
	if !reflect.DeepEqual(inline, &scrubbed) {
		t.Fatalf("healthy windowed run diverged from inline:\n%+v\nvs\n%+v", inline, windowed)
	}
	if got := fleetMetricsJSON(t, b); !bytes.Equal(inlineJSON, got) {
		t.Fatal("healthy windowed run's shard metrics diverged from inline")
	}
	if windowed.Admitted == 0 {
		t.Fatal("traffic admitted nothing")
	}
}

// TestParallelTrafficByteIdenticalAcrossSlots is the core contract at
// fleet level: the same run at 1, 4, and 8 slots produces identical
// results, identical per-shard metrics JSON, and an identical adopted
// trace, span IDs included. The test job runs this under -race, so the
// slot>1 runs also prove the executor free of data races.
func TestParallelTrafficByteIdenticalAcrossSlots(t *testing.T) {
	want := runWindowed(t, 1, false, 7)
	if want.res.Admitted == 0 {
		t.Fatal("traffic admitted nothing")
	}
	// A healthy run still walks the window protocol, but with no
	// degraded traffic there are no cross-shard edges, so nothing parks.
	if want.res.Windows == 0 || want.res.Rounds == 0 {
		t.Fatalf("run recorded no protocol activity: %d windows, %d rounds", want.res.Windows, want.res.Rounds)
	}
	if want.res.DeferredFetches != 0 || want.res.EarlyFetches != 0 {
		t.Fatalf("healthy run deferred %d fetches (%d early); there are no cross-shard edges to defer",
			want.res.DeferredFetches, want.res.EarlyFetches)
	}
	for _, slots := range []int{4, 8} {
		got := runWindowed(t, slots, false, 7)
		diffArtifacts(t, fmt.Sprintf("slots=%d", slots), want, got)
	}
}

// TestKillShardDuringWindow is the loss battery: a whole shard dies
// before traffic, so every request routed to it burns the retry budget
// and parks a replica re-fetch at a window barrier — across multiple
// windows, at slot counts 1/4/8, everything must stay byte-identical,
// and the degraded path must actually have been taken.
func TestKillShardDuringWindow(t *testing.T) {
	want := runWindowed(t, 1, true, 7)
	if got := want.res.Path[core.PathReplicaFallback]; got == 0 {
		t.Fatal("shard loss produced no replica-fallback serves; the battery is vacuous")
	}
	if want.res.DeferredFetches == 0 {
		t.Fatal("no replica fetch parked at a window barrier; the battery is vacuous")
	}
	// The schedule must span multiple conservative windows, or "across a
	// window boundary" is untested.
	if span := want.res.Horizon; span < 2*units.Time(ReplicaLookahead()) {
		t.Fatalf("traffic horizon %v inside two %v windows; widen the schedule", span, ReplicaLookahead())
	}
	for _, slots := range []int{4, 8} {
		got := runWindowed(t, slots, true, 7)
		diffArtifacts(t, fmt.Sprintf("slots=%d", slots), want, got)
	}
}

// TestParallelTrafficRestoresAndReuses: the executor must leave the
// fleet exactly as it found it — replica routers and tracer restored —
// so a reset fleet reruns as if fresh, and a single degraded request
// after a windowed run still routes its re-fetch through the real
// shardFetcher rather than a leaked parking fetcher.
func TestParallelTrafficRestoresAndReuses(t *testing.T) {
	const objects = 8
	fresh, app := testFleet(t, 3, 2, objects)
	want, err := RunTrafficParallel(fresh, windowTraffic(app, objects, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := fleetMetricsJSON(t, fresh)

	reused, _ := testFleet(t, 3, 2, objects)
	if _, err := RunTrafficParallel(reused, windowTraffic(app, objects, 11), 4); err != nil {
		t.Fatal(err)
	}
	reused.ResetTimers()
	got, err := RunTrafficParallel(reused, windowTraffic(app, objects, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reused fleet diverged from fresh fleet:\n%+v\nvs\n%+v", want, got)
	}
	if gotJSON := fleetMetricsJSON(t, reused); !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("reused fleet metrics differ from a fresh fleet's")
	}

	// Degraded mode outside the executor still works after a windowed
	// run: the real replica router was restored.
	reused.ResetTimers()
	name := ObjectName(0)
	primary := reused.Place(name)[0]
	reused.KillShard(primary)
	sh := reused.Shards[primary]
	f, err := sh.Sys.OpenFile(name)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := sh.Sys.InvokeStorageApp(0, core.InvokeOptions{
		App:      app.StorageApp(),
		File:     f,
		Fallback: &core.Fallback{Parser: app.HostParser, Spec: app.Spec},
	})
	if err != nil {
		t.Fatalf("degraded request after a windowed run failed: %v", err)
	}
	if inv.Path != core.PathReplicaFallback {
		t.Fatalf("served via %v, want %v", inv.Path, core.PathReplicaFallback)
	}
}

// recycleShard is a one-shard fleet with two grep objects of equal size
// but different bytes, A and B, and serve calls serveOne directly with
// one recycled result buffer, as a shard's executor does.
type recycleShard struct {
	a        *Array
	tc       TrafficConfig
	classes  []Class
	res      *TrafficResult
	inflight []units.Time
	refs     map[string][]byte
	scratch  []byte
	dataB    []byte
}

func newRecycleShard(t *testing.T) *recycleShard {
	t.Helper()
	a, app := testFleet(t, 1, 1, 0)
	dataA := app.Gen(16*units.KiB, 1, 7)[0]
	// B keeps A's token count, so its objects fit in A's buffer.
	dataB := bytes.ReplaceAll(dataA, []byte("1"), []byte("2"))
	for name, data := range map[string][]byte{"A": dataA, "B": dataB} {
		if err := a.StageObject(name, data); err != nil {
			t.Fatal(err)
		}
	}
	a.ResetTimers()
	r := &recycleShard{a: a, tc: windowTraffic(app, 2, 1), refs: map[string][]byte{}, dataB: dataB}
	var err error
	if r.classes, err = checkTraffic(&r.tc); err != nil {
		t.Fatal(err)
	}
	r.res = newTrafficResult(a, &r.tc, r.classes)
	return r
}

// serve issues request seq for name, 10 ms after the previous one so
// admission never refuses it.
func (r *recycleShard) serve(seq int, name string) error {
	rq := schedReq{seq: seq, at: units.Time(seq) * units.Time(10*units.Millisecond), name: name}
	m := newShardMetrics(r.a.Shards[rq.primary].Sys.Metrics, r.classes)
	return serveOne(r.a, &r.tc, r.classes, m, rq, r.res, &r.inflight, r.refs, &r.scratch)
}

// TestServeOneRecyclingKeepsFirstResponses: serving A, B, A, B through one
// recycled buffer must leave each object's reference equal to its first
// response. A reference that shared the recycled buffer would take the
// next object's bytes.
func TestServeOneRecyclingKeepsFirstResponses(t *testing.T) {
	r := newRecycleShard(t)
	first := map[string][]byte{}
	for seq, name := range []string{"A", "B", "A", "B"} {
		if err := r.serve(seq, name); err != nil {
			t.Fatalf("request %d (%s): %v", seq, name, err)
		}
		if _, ok := first[name]; !ok {
			first[name] = bytes.Clone(r.refs[name])
		}
		for obj, want := range first {
			if !bytes.Equal(r.refs[obj], want) {
				t.Fatalf("after request %d (%s): refs[%s] no longer equals its first response", seq, name, obj)
			}
		}
	}
	if bytes.Equal(first["A"], first["B"]) {
		t.Fatal("A and B serve the same objects; the check is vacuous")
	}
	if r.res.Path[core.PathMorpheus] != 4 {
		t.Fatalf("served %v, want 4 requests on the Morpheus path", r.res.Path)
	}
}

// TestServeOneCatchesRewrittenObject: when an object's staged bytes change
// between two requests, the byte differential must still fail the run,
// even though the second response lands in a recycled buffer.
func TestServeOneCatchesRewrittenObject(t *testing.T) {
	r := newRecycleShard(t)
	for seq, name := range []string{"A", "B", "B"} {
		if err := r.serve(seq, name); err != nil {
			t.Fatalf("request %d (%s): %v", seq, name, err)
		}
	}
	// Overwrite A's extent with B's text, which has A's length.
	sys := r.a.Shards[0].Sys
	f, err := sys.OpenFile("A")
	if err != nil {
		t.Fatal(err)
	}
	at := units.Time(35 * units.Millisecond)
	addr, at, err := sys.Host.AllocDMA(at, units.Bytes(f.NLB)*nvme.LBASize)
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := sys.Driver.Submit(at, &ssd.CmdContext{
		Cmd:  nvme.BuildWrite(0, f.SLBA, f.NLB, uint64(addr)),
		Data: r.dataB,
	})
	if err != nil || comp.Status.Err() != nil {
		t.Fatalf("rewriting A: %v %v", err, comp.Status.Err())
	}
	sys.Host.FreeDMA(addr)
	err = r.serve(4, "A")
	if err == nil || !strings.Contains(err.Error(), "served different bytes") {
		t.Fatalf("serving the rewritten A returned %v, want a served-different-bytes error", err)
	}
}
