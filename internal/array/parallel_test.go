package array

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/flash"
	"morpheus/internal/nvme"
	"morpheus/internal/ssd"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// fleetTraffic spans about 12 ms of virtual time (60 arrivals at a
// 200 µs mean), long enough that a killed primary's replica re-fetches
// interleave with the holders' own traffic.
func fleetTraffic(app *apps.App, objects int, seed int64) TrafficConfig {
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

// parArtifacts is everything one executor run emits that the
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

// killBusiest kills the shard that is primary for the most of the first
// objects objects, like the E17 loss point: the shard whose loss
// degrades the most traffic.
func killBusiest(a *Array, objects int) {
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

// runFleet builds a fresh fleet, optionally kills the busiest primary,
// and runs the executor at the given slot count with a tracer attached.
func runFleet(t *testing.T, slots int, kill bool, seed int64) parArtifacts {
	t.Helper()
	const objects = 8
	a, app := testFleet(t, 4, 2, objects)
	tr := trace.New(0)
	a.AttachTracer(tr)
	if kill {
		killBusiest(a, objects)
	}
	res, err := RunTrafficParallel(a, fleetTraffic(app, objects, seed), slots)
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

// inlineTraffic is the test-only serving oracle: it issues the schedule
// strictly in global arrival order on one goroutine, through the
// fleet's own replica routers. The executor must reproduce it exactly,
// on a healthy fleet and on a degraded one.
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

// scrubProtocol returns res without the fields only the executor fills:
// the replica re-fetch count and the three fields that are always zero.
func scrubProtocol(res *TrafficResult) *TrafficResult {
	s := *res
	s.Windows, s.Rounds, s.DeferredFetches, s.EarlyFetches = 0, 0, 0, 0
	return &s
}

// matchInline runs tc on inline through inlineTraffic and on exec
// through RunTrafficParallel, and fails unless the two agree on the
// scrubbed result and on every shard's metrics JSON. exec's result is
// returned.
func matchInline(t *testing.T, label string, inline, exec *Array, tc TrafficConfig, slots int) *TrafficResult {
	t.Helper()
	want, err := inlineTraffic(inline, tc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunTrafficParallel(exec, tc, slots)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !reflect.DeepEqual(want, scrubProtocol(got)) {
		t.Errorf("%s: executor result diverged from inline:\n%+v\nvs\n%+v", label, want, got)
	}
	if w, g := fleetMetricsJSON(t, inline), fleetMetricsJSON(t, exec); !bytes.Equal(w, g) {
		t.Errorf("%s: executor shard metrics diverged from inline (%d vs %d bytes)", label, len(w), len(g))
	}
	if want.Admitted == 0 {
		t.Fatalf("%s: traffic admitted nothing", label)
	}
	return got
}

// TestParallelTrafficMatchesInlineWhenHealthy: with no degraded-mode
// traffic there are no cross-shard edges at all, and the executor must
// reproduce the inline oracle's results and per-shard metrics exactly.
func TestParallelTrafficMatchesInlineWhenHealthy(t *testing.T) {
	const objects = 8
	a, app := testFleet(t, 4, 2, objects)
	b, _ := testFleet(t, 4, 2, objects)
	got := matchInline(t, "healthy", a, b, fleetTraffic(app, objects, 7), 4)
	if got.DeferredFetches != 0 {
		t.Fatalf("healthy run made %d replica re-fetches", got.DeferredFetches)
	}
}

// TestParallelTrafficMatchesInlineWhenDegraded: with the busiest primary
// dead, every re-fetch lands in the holder's ledgers where the inline
// oracle puts it, so results and every shard's metrics match at any slot
// count.
func TestParallelTrafficMatchesInlineWhenDegraded(t *testing.T) {
	const objects = 8
	for _, seed := range []int64{7, 11, 13} {
		for _, slots := range []int{1, 4} {
			a, app := testFleet(t, 4, 2, objects)
			b, _ := testFleet(t, 4, 2, objects)
			killBusiest(a, objects)
			killBusiest(b, objects)
			label := fmt.Sprintf("seed=%d slots=%d", seed, slots)
			got := matchInline(t, label, a, b, fleetTraffic(app, objects, seed), slots)
			if got.Path[core.PathReplicaFallback] == 0 || got.DeferredFetches == 0 {
				t.Fatalf("%s: no replica re-fetch; the comparison is vacuous", label)
			}
		}
	}
}

// TestParallelTrafficMatchesInlineAfterLostPages: a live shard with
// uncorrectable media retires blocks and loses pages. After its fault
// model is cleared and the fleet reset, it still fetches those pages'
// objects from a replica, so it must still count as a fetcher: both
// runs match inline.
func TestParallelTrafficMatchesInlineAfterLostPages(t *testing.T) {
	const objects = 8
	a, app := testFleet(t, 4, 2, objects)
	b, _ := testFleet(t, 4, 2, objects)
	faulty := a.Place(ObjectName(0))[0]
	for _, f := range []*Array{a, b} {
		f.Shards[faulty].Sys.SSD.Flash.SetFaultModel(flash.FaultModel{UncorrectablePerM: 300_000, Seed: 5})
	}
	matchInline(t, "faulted", a, b, fleetTraffic(app, objects, 7), 4)
	if b.Shards[faulty].Sys.SSD.FTL.LostPages() == 0 {
		t.Fatal("the faulted run lost no pages; the second run is vacuous")
	}
	for _, f := range []*Array{a, b} {
		f.Shards[faulty].Sys.SSD.Flash.SetFaultModel(flash.FaultModel{})
		f.ResetTimers()
	}
	got := matchInline(t, "lost pages", a, b, fleetTraffic(app, objects, 11), 4)
	if got.DeferredFetches == 0 {
		t.Fatal("no replica re-fetch after the fault model was cleared; the second run is vacuous")
	}
}

// FuzzTrafficMatchesInline holds the executor to the inline oracle over
// fleet shapes: 1–6 shards, 1–3 replicas, any set of killed shards, one
// optional live shard with uncorrectable media, and the seed, arrival
// mix and slot count. Results and every shard's metrics JSON must match.
func FuzzTrafficMatchesInline(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(0b0001), int8(-1), uint32(0), int64(7), uint8(0), uint8(4))
	f.Add(uint8(5), uint8(3), uint8(0b00101), int8(1), uint32(100_000), int64(11), uint8(1), uint8(2))
	f.Add(uint8(6), uint8(1), uint8(0), int8(3), uint32(500_000), int64(13), uint8(2), uint8(8))
	f.Add(uint8(2), uint8(2), uint8(0b11), int8(-1), uint32(0), int64(3), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, shards, replicas, kill uint8, faulty int8, rate uint32, seed int64, mix, slots uint8) {
		const objects = 6
		n := 1 + int(shards)%6
		a, app := testFleet(t, n, 1+int(replicas)%3, objects)
		b, _ := testFleet(t, n, 1+int(replicas)%3, objects)
		for _, f := range []*Array{a, b} {
			for i := 0; i < n; i++ {
				if kill&(1<<i) != 0 {
					f.KillShard(i)
				}
			}
			if faulty >= 0 && !f.Shards[int(faulty)%n].Down {
				f.Shards[int(faulty)%n].Sys.SSD.Flash.SetFaultModel(flash.FaultModel{
					UncorrectablePerM: 1 + int64(rate%1_000_000), Seed: uint64(seed),
				})
			}
		}
		tc := fleetTraffic(app, objects, seed)
		tc.Requests = 32
		tc.Mix = Mix(mix % 3)
		matchInline(t, "fuzz", a, b, tc, 1+int(slots)%8)
	})
}

// TestUnexpectedFetcherFailsNamingShard: a re-fetch by a shard outside
// the run's fetcher set would break the ordering rule, so it is reported
// as an error naming the shard instead of being served.
func TestUnexpectedFetcherFailsNamingShard(t *testing.T) {
	a, _ := testFleet(t, 3, 2, 1)
	ex := &trafficExec{a: a}
	es := &execShard{id: 2}
	f := &orderedFetcher{ex: ex, es: es}
	if _, _, ok := f.FetchReplica(0, ObjectName(0)); ok {
		t.Fatal("a shard outside the fetcher set was served a replica")
	}
	if es.err == nil || !strings.Contains(es.err.Error(), "shard 2 ") {
		t.Fatalf("error %v does not name shard 2", es.err)
	}
}

// TestParallelTrafficByteIdenticalAcrossSlots is the core contract at
// fleet level: the same run at 1, 4, and 8 slots produces identical
// results, identical per-shard metrics JSON, and an identical adopted
// trace, span IDs included. The test job runs this under -race, so the
// slot>1 runs also prove the executor free of data races.
func TestParallelTrafficByteIdenticalAcrossSlots(t *testing.T) {
	want := runFleet(t, 1, false, 7)
	if want.res.Admitted == 0 {
		t.Fatal("traffic admitted nothing")
	}
	if r := want.res; r.Windows != 0 || r.Rounds != 0 || r.EarlyFetches != 0 || r.DeferredFetches != 0 {
		t.Fatalf("healthy run reported %d windows, %d rounds, %d early and %d replica re-fetches; want all zero",
			r.Windows, r.Rounds, r.EarlyFetches, r.DeferredFetches)
	}
	for _, slots := range []int{4, 8} {
		got := runFleet(t, slots, false, 7)
		diffArtifacts(t, fmt.Sprintf("slots=%d", slots), want, got)
	}
}

// TestKillShardAcrossSlots is the loss battery: a whole shard dies
// before traffic, so every request routed to it burns the retry budget
// and re-fetches a replica from a live holder. At slot counts 1/4/8
// everything must stay byte-identical, and the degraded path must
// actually have been taken.
func TestKillShardAcrossSlots(t *testing.T) {
	want := runFleet(t, 1, true, 7)
	if got := want.res.Path[core.PathReplicaFallback]; got == 0 {
		t.Fatal("shard loss produced no replica-fallback serves; the battery is vacuous")
	}
	if want.res.DeferredFetches == 0 {
		t.Fatal("no replica re-fetch counted; the battery is vacuous")
	}
	for _, slots := range []int{4, 8} {
		got := runFleet(t, slots, true, 7)
		diffArtifacts(t, fmt.Sprintf("slots=%d", slots), want, got)
	}
}

// TestParallelTrafficRestoresAndReuses: the executor must leave the
// fleet exactly as it found it — replica routers and tracer restored —
// so a reset fleet reruns as if fresh, and a single degraded request
// after an executor run still routes its re-fetch through the real
// shardFetcher rather than a leaked ordered fetcher.
func TestParallelTrafficRestoresAndReuses(t *testing.T) {
	const objects = 8
	fresh, app := testFleet(t, 3, 2, objects)
	want, err := RunTrafficParallel(fresh, fleetTraffic(app, objects, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := fleetMetricsJSON(t, fresh)

	reused, _ := testFleet(t, 3, 2, objects)
	if _, err := RunTrafficParallel(reused, fleetTraffic(app, objects, 11), 4); err != nil {
		t.Fatal(err)
	}
	reused.ResetTimers()
	got, err := RunTrafficParallel(reused, fleetTraffic(app, objects, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reused fleet diverged from fresh fleet:\n%+v\nvs\n%+v", want, got)
	}
	if gotJSON := fleetMetricsJSON(t, reused); !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("reused fleet metrics differ from a fresh fleet's")
	}

	// Degraded mode outside the executor still works after an executor
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
		t.Fatalf("degraded request after an executor run failed: %v", err)
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
	r := &recycleShard{a: a, tc: fleetTraffic(app, 2, 1), refs: map[string][]byte{}, dataB: dataB}
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
