package core

import (
	"morpheus/internal/nvme"
	"morpheus/internal/ssd"
	"morpheus/internal/units"
)

// ReplicaFetcher routes a degraded-mode replica re-fetch to the system
// that actually holds a surviving copy of the file. A single system's
// replica is the magic local copy WriteFile keeps; in an array, the copy
// lives on another shard, and fetching it must charge that shard's queue
// pair, flash channels, and clock — not pretend the bytes were free. When
// a fetcher is installed it is authoritative: a miss is a hard failure,
// never a silent fall-back onto the local copy.
type ReplicaFetcher interface {
	// FetchReplica returns the raw file bytes of name's replica and the
	// virtual time the holding system finished reading them off its own
	// media. ok=false means no surviving replica is reachable.
	FetchReplica(ready units.Time, name string) (data []byte, done units.Time, ok bool)
}

// SetReplicaFetcher installs (or, with nil, removes) the router the
// degraded path consults before touching the local replica copy.
func (s *System) SetReplicaFetcher(rf ReplicaFetcher) { s.replicaFetcher = rf }

// ReplicaFetcher returns the installed router (nil if none). Executors
// that interpose on the degraded path — the conservative-window shard
// executor defers fetches to its exchange phase — save the original
// through this and restore it when the run ends.
func (s *System) ReplicaFetcher() ReplicaFetcher { return s.replicaFetcher }

// ReadRaw streams a staged extent back to the host through conventional
// READ commands — the device-side cost of serving a replica re-fetch for
// a remote system. The commands run through this system's driver and
// queue pair, so its flash channels, PCIe link, and clock all see the
// read; the returned bytes are trimmed to the file's logical size.
func (s *System) ReadRaw(ready units.Time, f *File) ([]byte, units.Time, error) {
	bufAddr, t, err := s.Host.AllocDMA(ready, 2*units.Bytes(s.Cfg.SSD.MDTS))
	if err != nil {
		return nil, ready, err
	}
	defer s.Host.FreeDMA(bufAddr)
	out := make([]byte, 0, int(f.NLB)*nvme.LBASize) // the chunks' extents
	for _, ch := range s.chunksOf(f) {
		ctx := &ssd.CmdContext{
			Cmd:  nvme.BuildRead(0, ch.slba, ch.nlb, uint64(bufAddr)),
			Sink: func(p []byte) { out = append(out, p...) },
		}
		comp, t2, err := s.Driver.Submit(t, ctx)
		if err != nil {
			return nil, t, err
		}
		t = t2
		if serr := comp.Status.Err(); serr != nil {
			return nil, t, statusErr("READ", comp.Status)
		}
	}
	if units.Bytes(len(out)) > f.Size {
		out = out[:f.Size]
	}
	return out, t, nil
}
