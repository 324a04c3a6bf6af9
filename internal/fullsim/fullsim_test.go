package fullsim

import (
	"testing"
	"time"

	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/power"
)

func setup(t testing.TB, benchmarks []string, v modes.Vector) *Chip {
	t.Helper()
	cfg := config.Default(len(benchmarks))
	plan := modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
	ch, err := New(cfg, power.Default(), plan, benchmarks, 0, v)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestNewValidation(t *testing.T) {
	cfg := config.Default(2)
	plan := modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
	if _, err := New(cfg, power.Default(), plan, nil, 0, nil); err == nil {
		t.Error("empty benchmark list accepted")
	}
	if _, err := New(cfg, power.Default(), plan, []string{"mcf"}, 0, modes.Uniform(2, modes.Turbo)); err == nil {
		t.Error("mode/core mismatch accepted")
	}
	if _, err := New(cfg, power.Default(), plan, []string{"nope"}, 0, nil); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMeasureProducesSaneActivities(t *testing.T) {
	ch := setup(t, []string{"crafty", "mcf"}, nil)
	ch.Warm(5000)
	acts := ch.Measure(300_000)
	if len(acts) != 2 {
		t.Fatalf("got %d activities", len(acts))
	}
	// crafty (CPU bound) must out-commit mcf (memory bound).
	if acts[0].Committed <= acts[1].Committed {
		t.Errorf("crafty committed %d <= mcf %d", acts[0].Committed, acts[1].Committed)
	}
	for i, a := range acts {
		if a.IPC() <= 0 || a.IPC() > 5 {
			t.Errorf("core %d IPC %v out of range", i, a.IPC())
		}
		if p := ch.CorePowerW(i, a); p <= 0 || p > 60 {
			t.Errorf("core %d power %v out of range", i, p)
		}
	}
}

func TestSharedL2CausesContention(t *testing.T) {
	// Two streaming benchmarks must interfere in the shared L2.
	ch := setup(t, []string{"art", "mcf"}, nil)
	ch.Warm(5000)
	ch.Measure(300_000)
	contended, wait := ch.L2().Contention()
	if contended == 0 || wait == 0 {
		t.Error("no shared-L2 contention recorded for two streaming co-runners")
	}
}

func TestDVFSSlowsACore(t *testing.T) {
	run := func(v modes.Vector) uint64 {
		ch := setup(t, []string{"crafty", "gcc"}, v)
		ch.Warm(5000)
		acts := ch.Measure(400_000)
		return acts[0].Committed
	}
	turbo := run(nil)
	slowed := run(modes.Vector{modes.Eff2, modes.Turbo})
	if slowed >= turbo {
		t.Errorf("Eff2 core committed %d >= Turbo's %d over the same wall time", slowed, turbo)
	}
	// An Eff2 core runs at 85% frequency: committed should be roughly in
	// that ballpark for a CPU-bound benchmark (allow a wide band).
	ratio := float64(slowed) / float64(turbo)
	if ratio < 0.6 || ratio > 1.0 {
		t.Errorf("Eff2/Turbo commit ratio %.2f outside (0.6,1.0)", ratio)
	}
}

func TestSetVector(t *testing.T) {
	ch := setup(t, []string{"crafty", "gcc"}, nil)
	v := modes.Vector{modes.Eff1, modes.Eff2}
	ch.SetVector(v)
	if !ch.Vector().Equal(v) {
		t.Error("SetVector did not take effect")
	}
}

func TestRunManagedMeetsBudget(t *testing.T) {
	ch := setup(t, []string{"ammp", "mcf", "crafty", "art"}, nil)
	ch.Warm(5000)
	// Probe all-Turbo power to set a meaningful budget.
	acts := ch.Measure(200_000)
	var full float64
	for i, a := range acts {
		full += ch.CorePowerW(i, a)
	}
	budget := 0.8 * full
	res, err := ch.RunManaged(core.MaxBIPS{}, budget, 12)
	if err != nil {
		t.Fatal(err)
	}
	perExplore := res.ExploreChipPowerW(ch.cfg.DeltaPerExplore())
	if len(perExplore) != 12 {
		t.Fatalf("got %d intervals", len(perExplore))
	}
	over := 0
	for _, p := range perExplore[1:] { // first interval may correct a bootstrap overshoot
		if p > budget*1.05 {
			over++
		}
	}
	if over > 2 {
		t.Errorf("%d of 11 managed intervals exceeded the budget by >5%%", over)
	}
	if res.TotalInstr <= 0 {
		t.Error("no instructions committed under management")
	}
	// The manager must actually have left Turbo to fit an 80% budget.
	sawNonTurbo := false
	for _, v := range res.Modes {
		for _, m := range v {
			if m != modes.Turbo {
				sawNonTurbo = true
			}
		}
	}
	if !sawNonTurbo {
		t.Error("manager never changed modes under a tight budget")
	}
}

// TestManagedGuardedCoreDeath drives the cycle-level chip through the
// engine with fault injection and the resilient manager: a core that dies
// mid-run must be detected and parked by the guard, visibly in the Result,
// and the simulated physics must stop charging the dead core.
func TestManagedGuardedCoreDeath(t *testing.T) {
	ch := setup(t, []string{"crafty", "mcf", "gcc", "art"}, nil)
	ch.Warm(5000)
	explore := ch.cfg.Sim.Explore
	deathAt := 2 * explore
	res, err := ch.Managed(ManagedOptions{
		Policy:    core.MaxBIPS{},
		BudgetW:   1e12, // unconstrained: isolate the death handling
		Intervals: 12,
		Fault:     &fault.Scenario{Deaths: []fault.CoreDeath{{Core: 1, At: deathAt}}},
		Guard:     &core.GuardConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeadCores) != 1 || res.DeadCores[0] != 1 {
		t.Errorf("guard parked cores %v, want [1]", res.DeadCores)
	}
	// Physics: the dead core must commit nothing and draw nothing from the
	// first delta interval at/after the death time.
	deadFrom := int(deathAt / res.DeltaSim)
	var instrAfter, powerAfter float64
	for i := deadFrom; i < res.CoreInstr.Len(); i++ {
		instrAfter += res.CoreInstr.At(i, 1)
		powerAfter += res.CorePowerW.At(i, 1)
	}
	if instrAfter != 0 || powerAfter != 0 {
		t.Errorf("dead core advanced after death: instr=%v power=%v", instrAfter, powerAfter)
	}
	// The survivors must keep running for the full horizon.
	if res.Elapsed != time.Duration(12)*explore {
		t.Errorf("run ended at %v, want %v (death must not terminate the run)", res.Elapsed, 12*explore)
	}
	for _, c := range []int{0, 2, 3} {
		if res.PerCoreInstr[c] <= 0 {
			t.Errorf("surviving core %d committed nothing", c)
		}
	}
}
