package flash

import (
	"errors"
	"hash/fnv"

	"morpheus/internal/units"
)

// ErrUncorrectable reports a read whose bit errors exceeded the ECC
// correction capability — the data at that physical page is lost.
var ErrUncorrectable = errors.New("flash: uncorrectable ECC error")

// ErrProgramFail reports a program (write) operation the die could not
// complete — a worn page that no longer holds charge. The page stays
// unprogrammed; the FTL surfaces the error to the controller's write path.
var ErrProgramFail = errors.New("flash: program operation failed")

// FaultModel injects deterministic media errors, for failure-path testing
// and reliability what-ifs. Rates are per million operations.
//
// Correctable errors model ECC read-retry: the read succeeds but the die
// re-senses the page (extra array time). They are transient — keyed on
// the read sequence number, so a retry usually clears them.
// Uncorrectable errors model worn or damaged pages: keyed on the page
// address alone, so every read of an afflicted page fails until the
// block is retired.
// Program faults model pages that can no longer be written: keyed on the
// page address alone, so every program of an afflicted page fails with
// ErrProgramFail and the page keeps its erased state.
type FaultModel struct {
	CorrectablePerM   int64
	UncorrectablePerM int64
	ProgramPerM       int64
	Seed              uint64
	// RetryPenalty is the extra array occupancy of an ECC read-retry.
	RetryPenalty units.Duration
}

// DefaultFaultModel returns a disabled model (zero rates).
func DefaultFaultModel() FaultModel {
	return FaultModel{RetryPenalty: 60 * units.Microsecond}
}

// SetFaultModel installs (or clears, with zero rates) the fault model.
func (a *Array) SetFaultModel(m FaultModel) {
	if m.RetryPenalty == 0 {
		m.RetryPenalty = 60 * units.Microsecond
	}
	a.faults = m
}

// FaultModel returns the installed fault model.
func (a *Array) FaultModel() FaultModel { return a.faults }

// FaultStats reports injected-fault activity on the read path.
func (a *Array) FaultStats() (correctable, uncorrectable int64) {
	return a.correctable, a.uncorrectable
}

// ProgramFaults reports how many program operations the model failed.
func (a *Array) ProgramFaults() int64 { return a.programFaults }

// checkProgramFault decides whether one program operation fails.
func (a *Array) checkProgramFault(addr PPA) error {
	m := a.faults
	if m.ProgramPerM > 0 {
		if hash64(m.Seed, 0xBADB, a.addrKey(addr))%1_000_000 < uint64(m.ProgramPerM) {
			a.programFaults++
			return ErrProgramFail
		}
	}
	return nil
}

func hash64(vals ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func (a *Array) addrKey(addr PPA) uint64 {
	g := a.geo
	return uint64(((int64(addr.Channel)*int64(g.DiesPerChannel)+int64(addr.Die))*
		int64(g.PlanesPerDie)+int64(addr.Plane))*int64(g.BlocksPerPlane)+
		int64(addr.Block))*uint64(g.PagesPerBlock) + uint64(addr.Page)
}

// checkFaults decides the outcome of one read: extra latency for a
// correctable error, ErrUncorrectable for a damaged page.
func (a *Array) checkFaults(addr PPA) (extra units.Duration, err error) {
	m := a.faults
	if m.UncorrectablePerM > 0 {
		if hash64(m.Seed, 0xDEAD, a.addrKey(addr))%1_000_000 < uint64(m.UncorrectablePerM) {
			a.uncorrectable++
			return 0, ErrUncorrectable
		}
	}
	if m.CorrectablePerM > 0 {
		if hash64(m.Seed, 0xC0DE, a.addrKey(addr), uint64(a.reads))%1_000_000 < uint64(m.CorrectablePerM) {
			a.correctable++
			return m.RetryPenalty, nil
		}
	}
	return 0, nil
}
