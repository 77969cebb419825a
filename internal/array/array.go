// Package array scales the single simulated Morpheus-SSD testbed to a
// sharded serving fleet: N systems (one core.System — host, driver,
// SSD, event engine — per shard) behind consistent-hash object placement
// with k-way replication. The layout feeds the runtime's two-stage
// degraded mode: when a shard's media loses an object, the replica
// re-fetch is routed to the shard actually holding a surviving copy and
// charged against that shard's queues and clock (core.ReplicaFetcher).
//
// Everything is deterministic: placement is a pure hash of object names,
// shards share one virtual time axis (each engine starts at zero), and
// the traffic engine (engine.go) issues arrivals from seeded generators
// (arrival.go) — so array experiments keep the repository's byte-identity
// contract at any -parallel setting.
package array

import (
	"fmt"
	"sort"

	"morpheus/internal/core"
	"morpheus/internal/flash"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// Config shapes the fleet.
type Config struct {
	// Shards is the number of Morpheus-SSD systems (>= 1).
	Shards int
	// Replicas is how many distinct shards hold each object (1 = no
	// redundancy; clamped to Shards).
	Replicas int
	// VNodes is the number of virtual nodes each shard projects onto the
	// hash ring (<= 0 uses 64). More vnodes smooth placement.
	VNodes int
	// SlotLimit bounds admitted-but-unfinished requests per shard (the
	// admission-control window). <= 0 derives each shard's StorageApp
	// slot count (ssd.Config.MaxInstances).
	SlotLimit int
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards < 1 {
		return c, fmt.Errorf("array: need at least 1 shard, got %d", c.Shards)
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Replicas > c.Shards {
		c.Replicas = c.Shards
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	return c, nil
}

// Shard is one Morpheus-SSD system plus its fleet-level state.
type Shard struct {
	ID  int
	Sys *core.System
	// Down marks a shard lost to the fleet (KillShard): its media fails
	// every read, and the replica router stops offering it as a source.
	// Requests whose primary it is are still routed to it — that is
	// exactly the degraded-mode path under test.
	Down bool
}

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// Array is the sharded fleet.
type Array struct {
	Cfg    Config
	Shards []*Shard

	ring    []ringPoint
	objects map[string][]int // memoized placement, primary first
}

// New builds the fleet, constructing each shard's system through build
// (shard index → fresh core.System) and installing the replica router on
// every one.
func New(cfg Config, build func(shard int) (*core.System, error)) (*Array, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a := &Array{Cfg: cfg, objects: map[string][]int{}}
	for i := 0; i < cfg.Shards; i++ {
		sys, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("array: build shard %d: %w", i, err)
		}
		sys.SetReplicaFetcher(&shardFetcher{a: a, self: i})
		a.Shards = append(a.Shards, &Shard{ID: i, Sys: sys})
	}
	a.ring = make([]ringPoint, 0, cfg.Shards*cfg.VNodes)
	for i := 0; i < cfg.Shards; i++ {
		for v := 0; v < cfg.VNodes; v++ {
			a.ring = append(a.ring, ringPoint{
				hash:  hash64(fmt.Sprintf("shard%d#%d", i, v)),
				shard: i,
			})
		}
	}
	sort.Slice(a.ring, func(i, j int) bool {
		if a.ring[i].hash != a.ring[j].hash {
			return a.ring[i].hash < a.ring[j].hash
		}
		return a.ring[i].shard < a.ring[j].shard
	})
	return a, nil
}

// hash64 is FNV-1a with a murmur-style finalizer, the placement hash. A
// fixed, dependency-free hash is part of the determinism contract:
// placement must be identical across runs, architectures, and Go
// versions. The finalizer matters: bare FNV-1a barely avalanches the
// last few bytes into the high bits, so names differing only in a
// trailing counter ("obj0007", "shard2#41") would cluster into narrow
// ring arcs and defeat the consistent hashing entirely.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Place returns the Replicas distinct shards holding name, primary
// first: the first ring point at or clockwise past the object's hash,
// then the next points owned by shards not yet in the set.
func (a *Array) Place(name string) []int {
	if p, ok := a.objects[name]; ok {
		return p
	}
	h := hash64(name)
	start := sort.Search(len(a.ring), func(i int) bool { return a.ring[i].hash >= h })
	holders := make([]int, 0, a.Cfg.Replicas)
	seen := make([]bool, a.Cfg.Shards)
	for i := 0; len(holders) < a.Cfg.Replicas && i < len(a.ring); i++ {
		p := a.ring[(start+i)%len(a.ring)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		holders = append(holders, p.shard)
	}
	a.objects[name] = holders
	return holders
}

// StageObject writes data under name onto every holder shard (setup
// time; call ResetTimers before measuring).
func (a *Array) StageObject(name string, data []byte) error {
	for _, id := range a.Place(name) {
		if _, err := a.Shards[id].Sys.WriteFile(name, data); err != nil {
			return fmt.Errorf("array: stage %q on shard %d: %w", name, id, err)
		}
	}
	return nil
}

// Holders returns the shards holding name (an alias of Place for
// callers reading the layout rather than routing through it).
func (a *Array) Holders(name string) []int { return a.Place(name) }

// KillShard takes a whole shard out: every subsequent read on its flash
// is an uncorrectable media error, and the replica router stops using it
// as a source. Placement is unchanged — requests keep arriving at the
// dead primary and must be served through the degraded path.
func (a *Array) KillShard(id int) {
	sh := a.Shards[id]
	sh.Down = true
	sh.Sys.SSD.Flash.SetFaultModel(flash.FaultModel{
		UncorrectablePerM: 1_000_000,
		Seed:              uint64(id) + 1,
	})
}

// ResetTimers zeroes every shard's timing state and statistics — the
// boundary between staging and measurement, and what makes a fleet
// reusable across experiment points without stale ledger intervals or
// event-pool handles leaking into the next run.
func (a *Array) ResetTimers() {
	for _, sh := range a.Shards {
		sh.Sys.ResetTimers()
	}
}

// AttachTracer wires one shared tracer into every shard, so an array
// run's spans land on a single causally-ordered timeline.
func (a *Array) AttachTracer(t *trace.Tracer) {
	for _, sh := range a.Shards {
		sh.Sys.AttachTracer(t)
	}
}

// shardFetcher routes shard self's degraded-mode replica re-fetches to
// the first live holder of the object, in placement order. The read runs
// on the holder's system (core.System.ReadRaw), so its driver, flash
// channels, and clock are the ones charged.
type shardFetcher struct {
	a    *Array
	self int
}

func (f *shardFetcher) FetchReplica(ready units.Time, name string) ([]byte, units.Time, bool) {
	for _, id := range f.a.Place(name) {
		if id == f.self || f.a.Shards[id].Down {
			continue
		}
		sh := f.a.Shards[id]
		file, err := sh.Sys.OpenFile(name)
		if err != nil {
			continue
		}
		data, done, err := sh.Sys.ReadRaw(ready, file)
		if err != nil {
			continue
		}
		sh.Sys.Metrics.AddAt("array.replica.remote_reads", int64(ready), 1)
		return data, done, true
	}
	return nil, 0, false
}
