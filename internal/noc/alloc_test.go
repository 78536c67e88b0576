package noc

import (
	"testing"

	"gemini/internal/arch"
)

// TestSideOfAllocFree pins Cut.SideOf allocation-free: classifying a core
// against a cut is pure arithmetic on the config geometry and performs zero
// heap allocations. The DSE bound engine calls it once per core per cut
// inside its candidate loop.
func TestSideOfAllocFree(t *testing.T) {
	cfg := arch.GArch72()
	cuts := ChipletCuts(&cfg)
	if len(cuts) == 0 {
		t.Fatal("GArch72 has no chiplet cuts")
	}
	side := 0
	allocs := testing.AllocsPerRun(200, func() {
		for _, c := range cuts {
			for id := 0; id < cfg.CoresX*cfg.CoresY; id++ {
				side += c.SideOf(&cfg, arch.CoreID(id))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Cut.SideOf allocates %.0f times per sweep, want 0 (side sum %d)", allocs, side)
	}
}
