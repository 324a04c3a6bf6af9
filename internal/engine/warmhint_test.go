package engine

import (
	"testing"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/solver"
)

// hintRecorder is a capturing policy: it decides like the wrapped policy but
// records the warm hint each decision context carried: the vector in force
// when the context is warm, nil when it is cold.
type hintRecorder struct {
	inner core.Policy
	hints []modes.Vector
	outs  []modes.Vector
}

func (h *hintRecorder) Name() string { return "hint-recorder" }

func (h *hintRecorder) Decide(c core.Context) modes.Vector {
	if !c.Warm {
		h.hints = append(h.hints, nil)
	} else {
		h.hints = append(h.hints, c.Current.Clone())
	}
	v := h.inner.Decide(c)
	h.outs = append(h.outs, v.Clone())
	return v
}

func recorderOptions(t *testing.T, plan modes.Plan, rec *hintRecorder, n int, budget func(time.Duration) float64) Options {
	t.Helper()
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	return Options{
		Plan:             plan,
		Budget:           budget,
		Decider:          NewDecider(plan, rec, pred, n, nil, nil, nil),
		DeltaSim:         50 * time.Microsecond,
		DeltasPerExplore: 10,
		Horizon:          3 * time.Millisecond, // 6 decisions
	}
}

// TestWarmHintSteadyState pins the engine's hint threading: the first
// decision is cold (no previous vector), and every later decision in an
// undisturbed run receives exactly the vector the policy returned — and the
// engine actuated — the interval before.
func TestWarmHintSteadyState(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 18, 15, 17}, []float64{900, 1000, 700, 850}, 500e-6)
	rec := &hintRecorder{inner: core.MaxBIPS{}}
	res := runFake(t, sub, recorderOptions(t, plan, rec, 4, func(time.Duration) float64 { return 55 }))

	if len(rec.hints) < 3 {
		t.Fatalf("only %d decisions recorded", len(rec.hints))
	}
	if rec.hints[0] != nil {
		t.Fatalf("first decision got hint %v, want nil", rec.hints[0])
	}
	for i := 1; i < len(rec.hints); i++ {
		if !rec.hints[i].Equal(rec.outs[i-1]) {
			t.Fatalf("decision %d hint %v != previous actuated %v", i, rec.hints[i], rec.outs[i-1])
		}
	}
	if want := len(rec.hints) - 1; res.Obs.WarmHints != want {
		t.Fatalf("Obs.WarmHints = %d, want %d", res.Obs.WarmHints, want)
	}
}

// TestWarmHintBudgetJumpInvalidates pins the >25% budget-step rule: the
// decision right after a brownout is cold, the one after that (budget flat
// again) is warm.
func TestWarmHintBudgetJumpInvalidates(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 18, 15, 17}, []float64{900, 1000, 700, 850}, 500e-6)
	rec := &hintRecorder{inner: core.MaxBIPS{}}
	// Decisions land at 0, 500µs, 1ms, 1.5ms, 2ms, 2.5ms. The cap halves
	// (−50% ≫ 25%) from 1.2ms on → the 1.5ms decision must be cold.
	res := runFake(t, sub, recorderOptions(t, plan, rec, 4, func(now time.Duration) float64 {
		if now >= 1200*time.Microsecond {
			return 30
		}
		return 60
	}))

	if len(rec.hints) < 5 {
		t.Fatalf("only %d decisions recorded", len(rec.hints))
	}
	if rec.hints[1] == nil || rec.hints[2] == nil {
		t.Fatal("pre-brownout decisions were cold")
	}
	if rec.hints[3] != nil {
		t.Fatalf("decision after the budget step got hint %v, want nil", rec.hints[3])
	}
	if rec.hints[4] == nil {
		t.Fatal("decision after the budget settled was still cold")
	}
	if res.Obs.WarmHints >= len(rec.hints)-1 {
		t.Fatalf("Obs.WarmHints = %d did not drop for the cold decision", res.Obs.WarmHints)
	}
}

// TestWarmHintCoreDeathInvalidates pins the population-change rule: when a
// core dies, the next decision is cold, then warmth resumes. (A *finished*
// core cannot be tested this way — §5.1 ends the run at first completion —
// but both feed the same dead/done census in the invalidation check.)
func TestWarmHintCoreDeathInvalidates(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 18, 15, 17}, []float64{900, 1000, 700, 850}, 500e-6)
	inj, err := fault.NewInjector(fault.Scenario{
		Deaths: []fault.CoreDeath{{Core: 2, At: 1200 * time.Microsecond}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := &hintRecorder{inner: core.MaxBIPS{}}
	opt := recorderOptions(t, plan, rec, 4, func(time.Duration) float64 { return 55 })
	opt.Injector = inj
	runFake(t, sub, opt)

	if len(rec.hints) < 5 {
		t.Fatalf("only %d decisions recorded", len(rec.hints))
	}
	var coldAt []int
	for i := 1; i < len(rec.hints); i++ {
		if rec.hints[i] == nil {
			coldAt = append(coldAt, i)
		}
	}
	if len(coldAt) != 1 {
		t.Fatalf("cold decisions after the first at %v, want exactly one (the death transition)", coldAt)
	}
	if i := coldAt[0]; i+1 < len(rec.hints) && rec.hints[i+1] == nil {
		t.Fatal("warmth did not resume after the death transition")
	}
}

// TestEngineSessionCounters pins the Finish-time snapshot of the solver
// session's counters into Obs for a session-owning SolverPolicy, and that
// the session is actually being fed hints (warm-floored or memo-answered
// solves appear).
func TestEngineSessionCounters(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 18, 15, 17}, []float64{900, 1000, 700, 850}, 500e-6)
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	pol := core.NewSolverPolicy(&solver.BB{})
	opt := Options{
		Plan:             plan,
		Budget:           func(time.Duration) float64 { return 55 },
		Decider:          NewDecider(plan, pol, pred, 4, nil, nil, nil),
		DeltaSim:         50 * time.Microsecond,
		DeltasPerExplore: 10,
		Horizon:          3 * time.Millisecond,
	}
	res := runFake(t, sub, opt)
	if res.Obs.WarmHints == 0 {
		t.Fatal("no warm hints issued")
	}
	// The fake substrate is noiseless, so after the first interval the
	// matrices repeat bit-identically and the memo answers; either counter
	// proves session solves happened with state carried across intervals.
	if res.Obs.SolverMemoHits == 0 && res.Obs.SolverWarmSolves == 0 {
		t.Fatalf("session counters empty: %+v", res.Obs)
	}
	// The engine closed the session at Finish; the policy must report cold.
	if _, on := pol.SessionStats(); on {
		t.Fatal("session still open after Finish")
	}
}

// chipReading overrides the chip-level (VRM) reading the decider sees at
// the decisions before until.
type chipReading struct {
	until time.Duration
	w     float64
}

func (s chipReading) Name() string { return "chip-reading" }

func (s chipReading) Apply(st *Step) error {
	if st.Now < s.until {
		st.ChipPowerW = s.w
	}
	return nil
}

// TestWarmHintKeptAfterGuardIntervention pins that a guard intervention
// drops the session state but not the warm hint: the chip sensor reads far
// over budget for the first three decisions, so the hard cap throttles the
// third and fourth, and the first policy decision after it is handed the
// floor the throttle actuated.
func TestWarmHintKeptAfterGuardIntervention(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 18, 15, 17}, []float64{900, 1000, 700, 850}, 500e-6)
	rec := &hintRecorder{inner: core.MaxBIPS{}}
	budget := func(time.Duration) float64 { return 55 }
	opt := recorderOptions(t, plan, rec, 4, budget)
	opt.Decider.Close()
	opt.Decider = NewDecider(plan, rec, core.Predictor{Plan: plan, ExploreSeconds: 500e-6}, 4, &core.GuardConfig{}, nil, nil)
	opt.Stages = []Stage{BudgetSource{Fn: budget}, chipReading{until: 1200 * time.Microsecond, w: 1e3}}
	res := runFake(t, sub, opt)

	// Decisions at 0 and 0.5 ms run the policy; 1.0 and 1.5 ms are the
	// throttle's; 2.0 ms (released) and 2.5 ms run the policy again.
	if res.Obs.GuardOverrides != 2 || len(rec.hints) != 4 {
		t.Fatalf("%d throttled decisions, %d policy decisions; want 2 and 4: %+v", res.Obs.GuardOverrides, len(rec.hints), res.Obs)
	}
	if floor := modes.Uniform(4, modes.Mode(plan.NumModes()-1)); !rec.hints[2].Equal(floor) {
		t.Fatalf("first decision after the throttle got hint %v, want the actuated floor %v", rec.hints[2], floor)
	}
	if want := res.Obs.Decisions - 1; res.Obs.WarmHints != want {
		t.Fatalf("Obs.WarmHints = %d, want every decision but the first (%d)", res.Obs.WarmHints, want)
	}
}
