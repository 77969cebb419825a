package nvme

import (
	"testing"
	"testing/quick"
)

func TestCommandRoundTripProperty(t *testing.T) {
	f := func(op, flags uint8, cid uint16, nsid uint32, mptr, prp1, prp2 uint64, d10, d11, d12, d13, d14, d15 uint32) bool {
		c := Command{
			Opcode: Opcode(op), Flags: flags, CID: cid, NSID: nsid,
			MPTR: mptr, PRP1: prp1, PRP2: prp2,
			CDW10: d10, CDW11: d11, CDW12: d12, CDW13: d13, CDW14: d14, CDW15: d15,
		}
		return Unmarshal(c.Marshal()) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompletionRoundTripProperty(t *testing.T) {
	f := func(result uint32, sqHead, sqID, cid uint16, phase bool, status uint16) bool {
		c := Completion{
			Result: result, SQHead: sqHead, SQID: sqID, CID: cid,
			Phase: phase, Status: Status(status & 0x7FFF),
		}
		return UnmarshalCompletion(c.Marshal()) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommandWireLayout(t *testing.T) {
	// Byte 0 is the opcode; bytes 2-3 the CID, little endian — the layout
	// the paper's one-byte-opcode observation depends on.
	c := BuildMRead(0x1234, 0x55, 8, 7, 0xDEAD)
	w := c.Marshal()
	if w[0] != byte(OpMRead) {
		t.Fatalf("opcode byte = %#x", w[0])
	}
	if w[2] != 0x34 || w[3] != 0x12 {
		t.Fatalf("cid bytes = %#x %#x", w[2], w[3])
	}
	if len(w) != 64 {
		t.Fatalf("command size = %d", len(w))
	}
}

func TestMorpheusBuilders(t *testing.T) {
	minit := BuildMInit(1, 0x1000, 512, 9, 2, 0x2000)
	if minit.Opcode != OpMInit || minit.Instance() != 9 || minit.CDW10 != 512 {
		t.Fatalf("minit = %+v", minit)
	}
	mread := BuildMRead(2, 0x1_0000_0001, 32, 5, 0xBEEF)
	if mread.SLBA() != 0x1_0000_0001 {
		t.Fatalf("slba = %#x", mread.SLBA())
	}
	if mread.NLB() != 32 {
		t.Fatalf("nlb = %d", mread.NLB())
	}
	if mread.Instance() != 5 {
		t.Fatalf("instance = %d", mread.Instance())
	}
	mwrite := BuildMWrite(3, 7, 4, 6, 0xCAFE)
	if mwrite.Instance() != 6 || mwrite.PRP1 != 0xCAFE {
		t.Fatalf("mwrite = %+v", mwrite)
	}
	mdeinit := BuildMDeinit(4, 11)
	if mdeinit.Instance() != 11 {
		t.Fatalf("mdeinit instance = %d", mdeinit.Instance())
	}
	for _, op := range []Opcode{OpMInit, OpMRead, OpMWrite, OpMDeinit} {
		if !op.IsMorpheus() {
			t.Errorf("%v should be a Morpheus opcode", op)
		}
		if uint8(op) < 0xC0 {
			t.Errorf("%v must live in the vendor-specific opcode space", op)
		}
	}
	if OpRead.IsMorpheus() {
		t.Error("READ is not a Morpheus opcode")
	}
}

func TestStatusErr(t *testing.T) {
	if StatusSuccess.Err() != nil {
		t.Fatal("success must map to nil error")
	}
	if StatusNoInstance.Err() == nil {
		t.Fatal("failure status must map to an error")
	}
}
