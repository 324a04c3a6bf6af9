package experiment

import (
	"testing"

	"gpm/internal/core"
	"gpm/internal/workload"
)

// TestCrossSubstrateAgreement drives the same policies, budget and engine
// control loop through both substrates and asserts they agree: same policy
// ranking by degradation, bounded per-policy degradation gap, and both
// managed runs tracking the budget from below.
func TestCrossSubstrateAgreement(t *testing.T) {
	e := quickEnv(t)
	policies := []core.Policy{core.MaxBIPS{}, core.ChipWideDVFS{}}
	res, err := e.CrossSubstrate(workload.FourWay[0], 0.80, 16, policies)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(policies) {
		t.Fatalf("got %d rows for %d policies", len(res.Rows), len(policies))
	}
	for _, r := range res.Rows {
		t.Logf("%-13s trace %6.2f%% / full %6.2f%% (gap %5.2f%%)  fit %5.1f%% / %5.1f%%",
			r.Policy, r.TraceDeg*100, r.FullDeg*100, r.DegGap*100, r.TraceFit*100, r.FullFit*100)
		if r.TraceDeg < -0.05 || r.TraceDeg > 0.40 || r.FullDeg < -0.05 || r.FullDeg > 0.40 {
			t.Errorf("%s: degradations trace=%.3f full=%.3f implausible", r.Policy, r.TraceDeg, r.FullDeg)
		}
		// Coarse policies (chip-wide DVFS quantizes the whole chip to one
		// mode) can sit on opposite sides of a mode boundary in the two
		// substrates, so the gap bound is loose; the sharp assertion is the
		// ranking agreement below.
		if r.DegGap > 0.20 {
			t.Errorf("%s: substrates disagree by %.1f%% degradation", r.Policy, r.DegGap*100)
		}
		// Managed runs must track the budget from below in both substrates
		// (small overshoot tolerance for bootstrap correction).
		for name, fit := range map[string]float64{"trace": r.TraceFit, "full": r.FullFit} {
			if fit <= 0 || fit > 1.10 {
				t.Errorf("%s: %s substrate power/budget fit %.2f out of range", r.Policy, name, fit)
			}
		}
	}
	if !res.RankAgree {
		t.Error("substrates rank the policies differently")
	}
	// The §3.1 consistency claim: on each substrate, MaxBIPS degrades no
	// more than chip-wide DVFS at a tight budget (within a half-point slack
	// on the trace substrate and a point on the cycle-level one).
	mb, cw := res.Rows[0], res.Rows[1]
	if mb.TraceDeg > cw.TraceDeg+0.005 {
		t.Errorf("trace substrate: MaxBIPS (%.3f) behind chip-wide (%.3f)", mb.TraceDeg, cw.TraceDeg)
	}
	if mb.FullDeg > cw.FullDeg+0.01 {
		t.Errorf("cycle-level substrate: MaxBIPS (%.3f) behind chip-wide (%.3f)", mb.FullDeg, cw.FullDeg)
	}
}
