package cmpsim

import (
	"math"
	"testing"

	"gpm/internal/core"
)

// TestEnergyConservation: total energy must equal the integral of the chip
// power series, and per-core series must sum to the chip series.
func TestEnergyConservation(t *testing.T) {
	lib := testLib(t, 4)
	res, err := Run(lib, fourWay(), Options{
		Budget: FixedBudget(70),
		Policy: core.MaxBIPS{},
	})
	if err != nil {
		t.Fatal(err)
	}
	dt := res.DeltaSim.Seconds()
	var integral float64
	for i, chip := range res.ChipPowerW {
		integral += chip * dt
		var rowSum float64
		for _, p := range res.CorePowerW.Row(i) {
			rowSum += p
		}
		if math.Abs(rowSum-chip) > 1e-9 {
			t.Fatalf("interval %d: per-core power sums to %.6f, chip series says %.6f", i, rowSum, chip)
		}
	}
	if math.Abs(integral-res.EnergyJ) > res.EnergyJ*1e-9 {
		t.Errorf("∫power dt = %.9f J, EnergyJ = %.9f J", integral, res.EnergyJ)
	}
	// Instruction accounting: series, per-core totals, and TotalInstr agree.
	var seriesInstr float64
	perCore := make([]float64, 4)
	for i := 0; i < res.CoreInstr.Len(); i++ {
		for c, in := range res.CoreInstr.Row(i) {
			seriesInstr += in
			perCore[c] += in
		}
	}
	if math.Abs(seriesInstr-res.TotalInstr) > 1 {
		t.Errorf("series instructions %.0f vs TotalInstr %.0f", seriesInstr, res.TotalInstr)
	}
	for c := range perCore {
		if math.Abs(perCore[c]-res.PerCoreInstr[c]) > 1 {
			t.Errorf("core %d: series %.0f vs PerCoreInstr %.0f", c, perCore[c], res.PerCoreInstr[c])
		}
	}
}

// TestRunDeterminism: identical inputs must produce identical results.
func TestRunDeterminism(t *testing.T) {
	lib := testLib(t, 4)
	run := func() *Result {
		res, err := Run(lib, fourWay(), Options{
			Budget: FixedBudget(68),
			Policy: core.MaxBIPS{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalInstr != b.TotalInstr || a.EnergyJ != b.EnergyJ || a.TransitionStall != b.TransitionStall {
		t.Errorf("runs diverged: (%.0f, %.6f, %v) vs (%.0f, %.6f, %v)",
			a.TotalInstr, a.EnergyJ, a.TransitionStall, b.TotalInstr, b.EnergyJ, b.TransitionStall)
	}
	for k := range a.Modes {
		if !a.Modes[k].Equal(b.Modes[k]) {
			t.Fatalf("mode decisions diverged at explore %d: %v vs %v", k, a.Modes[k], b.Modes[k])
		}
	}
}

// TestModeSeriesMatchesDecisions: the recorded per-explore vectors must
// stay legal and only change at explore boundaries by construction.
func TestModeSeriesLegal(t *testing.T) {
	lib := testLib(t, 4)
	res, err := Run(lib, fourWay(), Options{
		Budget: FixedBudget(66),
		Policy: core.PullHiPushLo{},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := lib.Plan()
	for k, v := range res.Modes {
		if len(v) != 4 {
			t.Fatalf("explore %d: vector width %d", k, len(v))
		}
		for _, m := range v {
			if !plan.Valid(m) {
				t.Fatalf("explore %d: invalid mode %d", k, m)
			}
		}
	}
	// Explore count ≈ deltas / deltasPerExplore.
	wantExplores := (len(res.ChipPowerW) + 9) / 10
	if len(res.Modes) != wantExplores {
		t.Errorf("recorded %d explore vectors for %d deltas, want %d", len(res.Modes), len(res.ChipPowerW), wantExplores)
	}
}

// TestUnlimitedBudgetIsAllTurbo: with no budget pressure, MaxBIPS never
// leaves Turbo (transition stalls would only lose throughput).
func TestUnlimitedBudgetIsAllTurbo(t *testing.T) {
	lib := testLib(t, 4)
	res, err := Run(lib, fourWay(), Options{
		Budget: Unlimited(),
		Policy: core.MaxBIPS{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range res.Modes {
		for c, m := range v {
			if m != 0 {
				t.Fatalf("explore %d: core %d left Turbo under an unlimited budget: %v", k, c, v)
			}
		}
	}
	if res.TransitionStall != 0 {
		t.Errorf("unlimited budget paid %v of transition stalls", res.TransitionStall)
	}
}
