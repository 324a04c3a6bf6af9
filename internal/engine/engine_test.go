package engine

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/thermal"
)

// fakeSub is a deterministic synthetic substrate: core c draws baseP[c]
// scaled by the mode's V²f power law and commits rate[c] instructions per
// second of execution, frequency-scaled — i.e. its physics match the §5.5
// predictor exactly. It exists so engine tests and benchmarks exercise the
// control loop without trace characterization or cycle-level simulation
// underneath.
type fakeSub struct {
	plan       modes.Plan
	baseP      []float64
	rate       []float64
	exploreSec float64
	// doneAfter[c], when positive, completes core c once it has executed
	// that many seconds.
	doneAfter []float64
	execSec   []float64
}

func newFakeSub(plan modes.Plan, baseP, rate []float64, exploreSec float64) *fakeSub {
	return &fakeSub{
		plan:       plan,
		baseP:      baseP,
		rate:       rate,
		exploreSec: exploreSec,
		doneAfter:  make([]float64, len(baseP)),
		execSec:    make([]float64, len(baseP)),
	}
}

func (s *fakeSub) NumCores() int { return len(s.baseP) }

func (s *fakeSub) Bootstrap() []core.Sample {
	out := make([]core.Sample, len(s.baseP))
	for c := range out {
		out[c] = core.Sample{PowerW: s.baseP[c], Instr: s.rate[c] * s.exploreSec}
	}
	return out
}

func (s *fakeSub) ModePowerW(c int, m modes.Mode) float64 {
	return s.baseP[c] * s.plan.PowerScale(m)
}

func (s *fakeSub) DeltaStep(v modes.Vector, execSec float64, live []bool, energyJ, instr []float64) (completed bool) {
	for c := range live {
		if !live[c] {
			continue
		}
		energyJ[c] = s.baseP[c] * s.plan.PowerScale(v[c]) * execSec
		instr[c] = s.rate[c] * s.plan.FreqScale(v[c]) * execSec
		s.execSec[c] += execSec
		completed = completed || s.Finished(c)
	}
	return completed
}

func (s *fakeSub) Finished(c int) bool {
	return s.doneAfter[c] > 0 && s.execSec[c] >= s.doneAfter[c]
}

func (s *fakeSub) Lookahead() func(c int, m modes.Mode) (float64, float64) {
	return func(c int, m modes.Mode) (float64, float64) {
		return s.baseP[c] * s.plan.PowerScale(m), s.rate[c] * s.plan.FreqScale(m) * s.exploreSec
	}
}

func (s *fakeSub) MemBound() []float64 { return nil }

func testPlan(t testing.TB) modes.Plan {
	t.Helper()
	cfg := config.Default(4)
	return modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
}

func runFake(t testing.TB, sub *fakeSub, opt Options) *Result {
	t.Helper()
	res, err := Run(sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseOptions(t testing.TB, plan modes.Plan, n int, budgetW float64) Options {
	t.Helper()
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	return Options{
		Plan:             plan,
		Budget:           func(time.Duration) float64 { return budgetW },
		Decider:          NewDecider(plan, core.MaxBIPS{}, pred, n, nil, nil, nil),
		DeltaSim:         50 * time.Microsecond,
		DeltasPerExplore: 10,
		Horizon:          2 * time.Millisecond,
	}
}

// --- Satellite: thermal clamp with a sensor dead from birth ------------------

func deadSensorGovernor(t *testing.T) *thermal.Governor {
	t.Helper()
	st, err := thermal.NewState(thermal.Params{RthCPerW: 2.5, CthJPerC: 8e-4, AmbientC: 45, LimitC: 85}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return thermal.NewGovernor(st, 500*time.Microsecond)
}

// TestThermalClampDeadFromBirth is the regression test for the historical
// lastThermalB = +Inf initialization: a thermal sensor that fails before the
// first decision must clamp at the governor's initial (cold-chip) reading,
// not report an infinite allowance and never clamp at all.
func TestThermalClampDeadFromBirth(t *testing.T) {
	gov := deadSensorGovernor(t)
	initial := gov.BudgetW()
	if math.IsInf(initial, 1) || initial <= 0 {
		t.Fatalf("governor initial reading %v not a usable seed", initial)
	}
	inj, err := fault.NewInjector(fault.Scenario{ThermalFailAt: time.Nanosecond}, 4)
	if err != nil {
		t.Fatal(err)
	}
	clamp := NewThermalClamp(gov, inj)
	// Heat the chip far past the limit AFTER construction: a live sensor
	// would now clamp much harder, a dead one repeats the seeded reading,
	// and the old +Inf bug would not clamp at all.
	gov.State().Step([]float64{400, 400, 400, 400}, 50*time.Millisecond)
	st := &Step{Now: time.Millisecond, BudgetW: 1e12}
	if err := clamp.Apply(st); err != nil {
		t.Fatal(err)
	}
	if st.BudgetW != initial {
		t.Errorf("dead-from-birth sensor clamped to %v, want seeded initial reading %v", st.BudgetW, initial)
	}
}

// TestThermalClampTracksLiveSensor checks the no-fault path still follows the
// live governor reading as the chip heats.
func TestThermalClampTracksLiveSensor(t *testing.T) {
	gov := deadSensorGovernor(t)
	clamp := NewThermalClamp(gov, nil)
	st := &Step{BudgetW: 1e12}
	if err := clamp.Apply(st); err != nil {
		t.Fatal(err)
	}
	cold := st.BudgetW
	gov.State().Step([]float64{120, 120, 120, 120}, 20*time.Millisecond)
	st2 := &Step{Now: 20 * time.Millisecond, BudgetW: 1e12}
	if err := clamp.Apply(st2); err != nil {
		t.Fatal(err)
	}
	if st2.BudgetW >= cold {
		t.Errorf("hot-chip clamp %v not below cold-chip clamp %v", st2.BudgetW, cold)
	}
}

// --- Middleware chain --------------------------------------------------------

func TestDefaultChainOrder(t *testing.T) {
	gov := deadSensorGovernor(t)
	inj, err := fault.NewInjector(fault.Scenario{PowerNoiseSigma: 0.05}, 4)
	if err != nil {
		t.Fatal(err)
	}
	budget := func(time.Duration) float64 { return 80 }
	names := func(chain []Stage) string {
		var parts []string
		for _, s := range chain {
			parts = append(parts, s.Name())
		}
		return strings.Join(parts, ",")
	}
	if got := names(DefaultChain(budget, "", inj, gov)); got != "budget,fault-budget,thermal-clamp,fault-observe" {
		t.Errorf("full chain order %q", got)
	}
	if got := names(DefaultChain(budget, "", nil, nil)); got != "budget" {
		t.Errorf("bare chain %q", got)
	}
	if got := names(DefaultChain(budget, "", nil, gov)); got != "budget,thermal-clamp" {
		t.Errorf("thermal-only chain %q", got)
	}
}

func TestBudgetSourceValidation(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -1} {
		src := BudgetSource{Fn: func(time.Duration) float64 { return bad }, ErrPrefix: "fullsim"}
		err := src.Apply(&Step{Now: time.Millisecond})
		if err == nil {
			t.Fatalf("budget %v accepted", bad)
		}
		if !strings.Contains(err.Error(), "fullsim:") || !strings.Contains(err.Error(), "budget") {
			t.Errorf("error %q missing prefix or cause", err)
		}
	}
	src := BudgetSource{Fn: func(time.Duration) float64 { return 55 }}
	st := &Step{}
	if err := src.Apply(st); err != nil || st.BudgetW != 55 {
		t.Errorf("good budget rejected: %v (budget %v)", err, st.BudgetW)
	}
}

// --- Satellite: Result edge cases -------------------------------------------

func TestResultEdgeCases(t *testing.T) {
	empty := &Result{}
	if v := empty.MaxChipPowerW(); v != 0 {
		t.Errorf("empty MaxChipPowerW = %v", v)
	}
	if v := empty.EnvelopePowerW(); v != 0 {
		t.Errorf("empty EnvelopePowerW = %v", v)
	}
	if v := empty.AvgChipPowerW(); v != 0 {
		t.Errorf("empty AvgChipPowerW = %v", v)
	}
	if s := empty.ExploreChipPowerW(10); s != nil {
		t.Errorf("empty ExploreChipPowerW = %v", s)
	}

	single := &Result{
		ChipPowerW: []float64{1, 3, 2},
		CorePowerW: Series{width: 1, vals: []float64{1, 3, 2}},
	}
	if v := single.MaxChipPowerW(); v != 3 {
		t.Errorf("single-core MaxChipPowerW = %v, want 3", v)
	}
	// With one core the envelope IS the peak: the sum over cores of per-core
	// maxima degenerates to the chip maximum.
	if v := single.EnvelopePowerW(); v != 3 {
		t.Errorf("single-core EnvelopePowerW = %v, want 3", v)
	}
	if s := single.ExploreChipPowerW(0); s != nil {
		t.Errorf("non-positive deltasPerExplore accepted: %v", s)
	}

	trunc := &Result{ChipPowerW: []float64{1, 2, 3, 4, 5}}
	got := trunc.ExploreChipPowerW(2)
	want := []float64{1.5, 3.5, 5}
	if len(got) != len(want) {
		t.Fatalf("folded series %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("folded[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// --- Satellite: truncated-interval averaging through the engine path ---------

func TestTruncatedIntervalAveragingEnginePath(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 20, 20, 20}, []float64{4e9, 4e9, 4e9, 4e9}, 500e-6)
	opt := baseOptions(t, plan, 4, 1e12) // unconstrained: vector stays Turbo
	// One full explore interval (10 deltas) plus 4 deltas of a truncated one.
	opt.Horizon = 500*time.Microsecond + 4*50*time.Microsecond
	res := runFake(t, sub, opt)
	if len(res.ChipPowerW) != 14 {
		t.Fatalf("simulated %d deltas, want 14", len(res.ChipPowerW))
	}
	if res.Elapsed != opt.Horizon {
		t.Errorf("elapsed %v, want %v", res.Elapsed, opt.Horizon)
	}
	// Power is constant at Turbo, so a correct truncated average equals the
	// per-delta power; dividing by the nominal 10 deltas would report 0.4×.
	for c, s := range res.FinalSamples {
		if math.Abs(s.PowerW-20) > 1e-9 {
			t.Errorf("core %d final sample %v W, want 20 W (truncated average over 4 deltas)", c, s.PowerW)
		}
	}
}

// pollSub reports a completion from every DeltaStep, so the loop polls
// Finished for every core at every delta: the loop as it ran before
// DeltaStep reported completions, and the reference the report is held to.
type pollSub struct{ *fakeSub }

func (s pollSub) DeltaStep(v modes.Vector, execSec float64, live []bool, energyJ, instr []float64) bool {
	s.fakeSub.DeltaStep(v, execSec, live, energyJ, instr)
	return true
}

// TestEngineFirstCompletionStops checks the §5.1 termination rule through the
// engine: the run ends at the first finished core, mid-interval, and the
// truncated interval is still averaged correctly. Each case also runs on a
// substrate that reports a completion from every step, which makes the loop
// poll every core at every delta, and the two Results must be identical:
// skipping the polls until a step reports a completion changes nothing,
// whether two cores complete in one delta, a core is finished before the
// first step, or injector-dead cores (one of which would complete if it
// ran) sit beside them.
func TestEngineFirstCompletionStops(t *testing.T) {
	plan := testPlan(t)
	cases := []struct {
		name      string
		doneAfter []float64 // seconds of execution to completion; 0: never
		atBoot    []int     // cores finished before the run starts
		deaths    []fault.CoreDeath
		first     int
		done      []int // cores the final samples mark Done
	}{
		{name: "one core", doneAfter: []float64{0, 0, 720e-6, 0}, first: 2, done: []int{2}},
		{name: "two in one delta", doneAfter: []float64{0, 720e-6, 0, 0, 720e-6, 0}, first: 4, done: []int{1, 4},
			deaths: []fault.CoreDeath{{Core: 3, At: 300 * time.Microsecond}, {Core: 5, At: 0}}},
		{name: "dead would-be first", doneAfter: []float64{0, 0, 0, 100e-6, 900e-6, 0}, first: 4, done: []int{4},
			deaths: []fault.CoreDeath{{Core: 3, At: 0}, {Core: 5, At: 250 * time.Microsecond}}},
		{name: "finished at bootstrap", doneAfter: []float64{0, 300e-6, 0, 0, 0, 0}, atBoot: []int{1}, first: 1, done: []int{1},
			deaths: []fault.CoreDeath{{Core: 4, At: 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.doneAfter)
			run := func(poll bool) *Result {
				baseP, rate := make([]float64, n), make([]float64, n)
				for c := range baseP {
					baseP[c], rate[c] = 20+float64(c%3)*5, 4e9
				}
				fs := newFakeSub(plan, baseP, rate, 500e-6)
				copy(fs.doneAfter, tc.doneAfter)
				for _, c := range tc.atBoot {
					fs.execSec[c] = fs.doneAfter[c]
				}
				opt := baseOptions(t, plan, n, 1e12)
				if tc.deaths != nil {
					inj, err := fault.NewInjector(fault.Scenario{Deaths: tc.deaths}, n)
					if err != nil {
						t.Fatal(err)
					}
					opt.Injector = inj
				}
				var sub Substrate = fs
				if poll {
					sub = pollSub{fs}
				}
				res, err := Run(sub, opt)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := run(false)
			if res.FirstCompleted != tc.first {
				t.Errorf("FirstCompleted = %d, want %d", res.FirstCompleted, tc.first)
			}
			if res.Elapsed >= 2*time.Millisecond {
				t.Errorf("run did not stop early (elapsed %v)", res.Elapsed)
			}
			for c := range n {
				if want := slices.Contains(tc.done, c); res.FinalSamples[c].Done != want {
					t.Errorf("core %d: FinalSamples Done = %v, want %v", c, res.FinalSamples[c].Done, want)
				}
			}
			// A core finished before the first step never runs.
			for _, c := range tc.atBoot {
				if res.PerCoreInstr[c] != 0 {
					t.Errorf("core %d, finished at bootstrap, committed %v instructions", c, res.PerCoreInstr[c])
				}
			}
			if ref := run(true); !reflect.DeepEqual(res, ref) {
				t.Errorf("Result differs from the loop that polls every delta:\n got %+v\nwant %+v", res, ref)
			}
		})
	}
}

// TestEngineMatchesBudget sanity-checks the managed loop end to end on the
// synthetic substrate: a 70% budget forces non-Turbo modes and the average
// power lands at or under the budget.
func TestEngineMatchesBudget(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 20, 20, 20}, []float64{4e9, 3e9, 2e9, 1e9}, 500e-6)
	budget := 0.7 * 80
	opt := baseOptions(t, plan, 4, budget)
	opt.Horizon = 5 * time.Millisecond
	res := runFake(t, sub, opt)
	if res.AvgChipPowerW() > budget*1.02 {
		t.Errorf("avg power %v exceeds budget %v", res.AvgChipPowerW(), budget)
	}
	sawNonTurbo := false
	for _, v := range res.Modes {
		for _, m := range v {
			if m != modes.Turbo {
				sawNonTurbo = true
			}
		}
	}
	if !sawNonTurbo {
		t.Error("manager never left Turbo under a 70% budget")
	}
}
