package core

import (
	"errors"
	"testing"
)

func TestSystemIdentifiesController(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	id := sys.Identify
	if id == nil {
		t.Fatal("system must identify the controller at attach time")
	}
	if !id.Morpheus.Supported {
		t.Fatal("Morpheus-SSD must advertise the capability")
	}
	if id.Morpheus.EmbeddedCores != uint8(sys.Cfg.SSD.EmbeddedCores) {
		t.Fatalf("cores = %d, want %d", id.Morpheus.EmbeddedCores, sys.Cfg.SSD.EmbeddedCores)
	}
	if id.Morpheus.FPU {
		t.Fatal("the Tensilica cores have no FPU")
	}
	if max := id.MaxTransferBytes(); max != int64(sys.Cfg.SSD.MDTS) {
		t.Fatalf("identify MDTS %d != configured %v", max, sys.Cfg.SSD.MDTS)
	}
}

func TestStockControllerRejectsMorpheus(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) {
		c.WithGPU = false
		c.SSD.MorpheusSupported = false
	})
	if sys.Identify.Morpheus.Supported {
		t.Fatal("stock controller must not advertise Morpheus")
	}
	data, _ := testInput(1<<10, 1)
	f, err := sys.WriteFile("f", data)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f})
	if !errors.Is(err, ErrNoMorpheus) {
		t.Fatalf("err = %v, want ErrNoMorpheus", err)
	}
	// Conventional reads still work on the stock device.
	parser := func(chunk []byte, final bool) []byte { return nil }
	if _, err := sys.DeserializeConventional(0, f, parser, ParseSpec{}, 0, nil); err != nil {
		t.Fatalf("conventional path must survive: %v", err)
	}
}
