package nvme

import "testing"

func TestMorpheusBuilders(t *testing.T) {
	// The §IV-A dword assignments, field by field.
	for _, tc := range []struct {
		got, want Command
	}{
		{BuildMInit(1, 0x1000, 512, 9, 2, 0x2000),
			Command{Opcode: OpMInit, CID: 1, PRP1: 0x1000, PRP2: 0x2000, CDW10: 512, CDW11: 9, CDW12: 2}},
		{BuildMRead(2, 0x1_0000_0001, 32, 5, 0xBEEF),
			Command{Opcode: OpMRead, CID: 2, PRP1: 0xBEEF, CDW10: 1, CDW11: 1, CDW12: 31, CDW13: 5}},
		{BuildMWrite(3, 7, 4, 6, 0xCAFE),
			Command{Opcode: OpMWrite, CID: 3, PRP1: 0xCAFE, CDW10: 7, CDW12: 3, CDW13: 6}},
		{BuildMDeinit(4, 11), Command{Opcode: OpMDeinit, CID: 4, CDW11: 11}},
		{BuildRead(5, 99, 8, 0xC000), Command{Opcode: OpRead, CID: 5, PRP1: 0xC000, CDW10: 99, CDW12: 7}},
		{BuildWrite(6, 100, 1, 0xC800), Command{Opcode: OpWrite, CID: 6, PRP1: 0xC800, CDW10: 100}},
	} {
		if tc.got != tc.want {
			t.Errorf("%v: got %+v, want %+v", tc.want.Opcode, tc.got, tc.want)
		}
	}
	minit := BuildMInit(1, 0x1000, 512, 9, 2, 0x2000)
	if minit.Instance() != 9 {
		t.Fatalf("minit instance = %d", minit.Instance())
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
	if mwrite := BuildMWrite(3, 7, 4, 6, 0xCAFE); mwrite.Instance() != 6 {
		t.Fatalf("mwrite instance = %d", mwrite.Instance())
	}
	if mdeinit := BuildMDeinit(4, 11); mdeinit.Instance() != 11 {
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
