package fleet

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"gpm/internal/config"
	"gpm/internal/modes"
	"gpm/internal/power"
	"gpm/internal/trace"
	"gpm/internal/workload"
)

// Characterizing the combo's benchmarks dominates test wall-clock, so all
// fleet tests share one library (profiles characterize lazily and cache
// inside it).
var (
	libOnce sync.Once
	sharedL *trace.Library
)

func testLib(t testing.TB) *trace.Library {
	t.Helper()
	libOnce.Do(func() {
		cfg := config.Default(4)
		plan := modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
		sharedL = trace.NewLibrary(cfg, power.Default(), plan)
	})
	return sharedL
}

// testConfig is the canonical small scenario: 4 chips, a latency-sensitive
// poisson cohort and a heavier gamma batch cohort, 10 ms horizon.
func testConfig() Config {
	return Config{
		Chips:   4,
		Combo:   workload.FourWay[0], // ammp, mcf, crafty, art
		Horizon: 10 * time.Millisecond,
		Seed:    7,
		Workers: 1,
		Cohorts: []Cohort{
			{
				Name: "interactive", Clients: 8, Process: "poisson",
				RatePerClient: 1000, CostInstr: 2e5, SLO: 2 * time.Millisecond,
				DiurnalAmp: 0.3, DiurnalPeriod: 10 * time.Millisecond,
			},
			{
				Name: "batch", Clients: 4, Process: "gamma", Shape: 2,
				RatePerClient: 400, CostInstr: 1e6, SLO: 10 * time.Millisecond,
				DiurnalPhase: 0.5,
			},
		},
	}
}

func TestFleetSmoke(t *testing.T) {
	lib := testLib(t)
	res, err := Run(lib, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived == 0 {
		t.Fatal("no arrivals generated")
	}
	if res.Completed == 0 {
		t.Fatal("no request completed")
	}
	if got := res.Completed + res.Shed + res.Unfinished; got != res.Arrived {
		t.Errorf("request conservation: %d completed + %d shed + %d unfinished != %d arrived",
			res.Completed, res.Shed, res.Unfinished, res.Arrived)
	}
	if len(res.ChipResults) != 4 {
		t.Fatalf("want 4 chip results, got %d", len(res.ChipResults))
	}
	for i, cr := range res.ChipResults {
		if cr.Elapsed != res.Horizon {
			t.Errorf("chip %d elapsed %v, want %v", i, cr.Elapsed, res.Horizon)
		}
		if cr.TotalInstr <= 0 {
			t.Errorf("chip %d committed nothing", i)
		}
	}
	for _, cs := range res.Cohorts {
		if cs.Attainment < 0 || cs.Attainment > 1 {
			t.Errorf("cohort %s attainment %v outside [0,1]", cs.Name, cs.Attainment)
		}
		if cs.Completed > 0 && (math.IsNaN(cs.Latency.P99) || cs.Latency.P99 <= 0) {
			t.Errorf("cohort %s p99 %v invalid with %d completions", cs.Name, cs.Latency.P99, cs.Completed)
		}
	}
	if res.JainFairness <= 0 || res.JainFairness > 1 {
		t.Errorf("Jain fairness %v outside (0,1]", res.JainFairness)
	}
	// The arbiter must respect the facility cap at every epoch.
	for _, e := range res.EpochLog {
		var sum float64
		for _, g := range e.GrantW {
			sum += g
		}
		if sum > e.FacilityCapW*(1+1e-9) {
			t.Errorf("epoch %v: grants %v W exceed facility cap %v W", e.Start, sum, e.FacilityCapW)
		}
	}
	if want := int(res.Horizon/res.Epoch) + boolToInt(res.Horizon%res.Epoch != 0); len(res.EpochLog) != want {
		t.Errorf("epoch log has %d entries, want %d", len(res.EpochLog), want)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestFleetDeterministicAcrossWorkers pins the shared-clock contract: the
// whole scenario — serving digest, epoch log, every chip's engine series —
// is bit-identical for any worker count (same shape as the experiment
// package's TestSweepDeterministicAcrossWorkers).
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	lib := testLib(t)
	ref, err := Run(lib, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	refFP := Fingerprint(ref)
	for _, workers := range []int{2, 8} {
		cfg := testConfig()
		cfg.Workers = workers
		res, err := Run(lib, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fp := Fingerprint(res); fp != refFP {
			t.Errorf("workers=%d: fingerprint %#x != serial %#x", workers, fp, refFP)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("workers=%d: result differs from serial run", workers)
		}
	}
}

// TestFleetCapCutCascade pins the brownout path: a facility cap cut mid-run
// must flow through the arbiter into strictly lower per-chip grants, into
// the engines' budget series, and into deeper mode vectors.
func TestFleetCapCutCascade(t *testing.T) {
	lib := testLib(t)
	cfg := testConfig()
	cut := 5 * time.Millisecond
	full := 4 * 87.0 // ≈ Σ envelopes; exact value irrelevant, only the drop is
	cfg.FacilityCapW = func(now time.Duration) float64 {
		if now < cut {
			return full
		}
		return 0.4 * full
	}
	res, err := Run(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after float64
	var nb, na int
	for _, e := range res.EpochLog {
		var sum float64
		for _, g := range e.GrantW {
			sum += g
		}
		if e.Start < cut {
			before += sum
			nb++
		} else {
			after += sum
			na++
			if sum > 0.4*full*(1+1e-9) {
				t.Errorf("epoch %v: grants %v W exceed the cut cap %v W", e.Start, sum, 0.4*full)
			}
		}
	}
	if nb == 0 || na == 0 {
		t.Fatalf("cap cut at %v not straddled by epochs (%d before, %d after)", cut, nb, na)
	}
	if after/float64(na) >= before/float64(nb) {
		t.Errorf("mean grants did not drop across the cut: before %v W, after %v W",
			before/float64(nb), after/float64(na))
	}
	// The cut must reach the engines: per-chip budget series drop too.
	for i, cr := range res.ChipResults {
		deltasBefore := int(cut / cr.DeltaSim)
		var b0, b1 float64
		for d, b := range cr.BudgetW {
			if d < deltasBefore {
				b0 += b
			} else {
				b1 += b
			}
		}
		b0 /= float64(deltasBefore)
		b1 /= float64(len(cr.BudgetW) - deltasBefore)
		if b1 >= b0 {
			t.Errorf("chip %d: engine budget did not drop across the cut (%.1f W → %.1f W)", i, b0, b1)
		}
		// Deeper modes must appear after the cut.
		intervalsBefore := deltasBefore / 10
		deeper := false
		for vi, v := range cr.Modes {
			if vi < intervalsBefore {
				continue
			}
			for _, m := range v {
				if m > 0 {
					deeper = true
				}
			}
		}
		if !deeper {
			t.Errorf("chip %d: no non-Turbo modes after a 60%% cap cut", i)
		}
	}
}

// TestFleetShedsWhenSaturated pins admission control: with a tiny queue cap
// and a heavy offered load, some arrivals must be shed, and shed requests
// count against SLO attainment.
func TestFleetShedsWhenSaturated(t *testing.T) {
	lib := testLib(t)
	cfg := testConfig()
	cfg.QueueCap = 2
	cfg.Cohorts[0].RatePerClient = 4000
	res, err := Run(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("no arrivals shed despite QueueCap=2 under overload")
	}
	inter := res.Cohorts[0]
	if inter.Attainment >= 1 {
		t.Errorf("interactive attainment %v should reflect shed misses", inter.Attainment)
	}
}

// TestFleetPoliciesDiffer sanity-checks that the placement policy actually
// changes routing (identical outcomes would mean the policy knob is dead).
func TestFleetPoliciesDiffer(t *testing.T) {
	lib := testLib(t)
	fps := map[string]uint64{}
	for _, pol := range []string{"rr", "least-loaded", "power-aware"} {
		cfg := testConfig()
		cfg.Policy = pol
		res, err := Run(lib, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		fps[pol] = res.ServeHash
	}
	if fps["rr"] == fps["least-loaded"] && fps["least-loaded"] == fps["power-aware"] {
		t.Error("all three placement policies produced identical serving digests")
	}
}

// TestRunLeavesConfigUnchanged pins that defaults land in Run's own copy:
// a cohort left unnamed and without a process reads the same after Run, so
// concurrent runs over one config (Env.FleetSweep's points) never write to
// a shared array.
func TestRunLeavesConfigUnchanged(t *testing.T) {
	cfg := testConfig()
	cfg.Horizon = 2 * time.Millisecond
	cfg.Cohorts[1].Name, cfg.Cohorts[1].Process, cfg.Cohorts[1].Shape = "", "", 0
	want := append([]Cohort(nil), cfg.Cohorts...)
	if _, err := Run(testLib(t), cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Cohorts, want) {
		t.Errorf("Run wrote its defaults into the caller's cohorts:\n got %+v\nwant %+v", cfg.Cohorts, want)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	lib := testLib(t)
	bad := []func(*Config){
		func(c *Config) { c.Chips = 0 },
		func(c *Config) { c.Cohorts = nil },
		func(c *Config) { c.Horizon = -time.Millisecond },
		func(c *Config) { c.Epoch = 750 * time.Microsecond }, // not a multiple of explore
		func(c *Config) { c.Policy = "random" },
		func(c *Config) { c.QueueCap = -1 },
		func(c *Config) { c.Levels = []float64{0.5, 0.9} }, // not decreasing
		func(c *Config) { c.GrantSmoothing = 1.5 },
		func(c *Config) { c.Cohorts[0].RatePerClient = -1 },
		func(c *Config) { c.Cohorts[0].Process = "pareto" },
		func(c *Config) { c.Cohorts[0].SLO = 0; c.Cohorts[0].Name = "x" },
		func(c *Config) { c.Cohorts[0].DiurnalAmp = 1.0 },
	}
	for i, mut := range bad {
		cfg := testConfig()
		mut(&cfg)
		if _, err := New(lib, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
