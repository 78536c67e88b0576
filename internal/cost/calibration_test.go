package cost

import (
	"testing"

	"gemini/internal/arch"
)

// Calibration tests: the MC model must land in the neighborhood of the
// paper's reported cost deltas.
func TestCalibrationGArchVsSArch(t *testing.T) {
	e := New()
	s, g := arch.Simba(), arch.GArch72()
	delta := e.Evaluate(&g).Total()/e.Evaluate(&s).Total() - 1
	// Paper: +14.3%. Accept a modest premium band.
	if delta < 0.02 || delta > 0.30 {
		t.Errorf("G-Arch vs S-Arch MC delta = %+.1f%%, want small positive premium (paper +14.3%%)", 100*delta)
	}
}

func TestCalibrationGTorusVsTArch(t *testing.T) {
	e := New()
	tk, gt := arch.Grayskull(), arch.GArchTorus()
	red := 1 - e.Evaluate(&gt).Total()/e.Evaluate(&tk).Total()
	// Paper: -40.1%. The monolithic 120-core die must pay a heavy yield
	// penalty relative to the 6-chiplet design.
	if red < 0.25 || red > 0.60 {
		t.Errorf("G-Torus MC reduction = %.1f%%, want ~40%% (paper 40.1%%)", 100*red)
	}
}
