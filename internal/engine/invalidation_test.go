package engine

import (
	"testing"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/solver"
)

// driftSub is a fakeSub whose core 0 speeds up slightly every explore
// interval: consecutive decisions see one dirty core against bit-identical
// budgets and matrices elsewhere — exactly the steady-state regime the
// incremental re-solve targets.
type driftSub struct {
	*fakeSub
	steps int
}

func (s *driftSub) DeltaStep(v modes.Vector, execSec float64, live []bool, energyJ, instr []float64) bool {
	completed := s.fakeSub.DeltaStep(v, execSec, live, energyJ, instr)
	s.steps++
	if s.steps%10 == 0 { // once per explore interval (10 delta steps each)
		s.rate[0] *= 1.0015
	}
	return completed
}

// invalObserver wraps a session-owning solver policy and verifies, decision
// by decision, that the decision immediately following an InvalidateSession
// call is answered by a full solve — never by the memo or the delta patch.
// That is the contract the engine's discontinuity invalidations exist to
// enforce, and aggregate counters cannot see it (the intervals around a
// discontinuity legitimately use the fast paths).
type invalObserver struct {
	*core.SolverPolicy
	invalidated    bool
	decisions      int
	coldAfterInval int
	badAfterInval  int
}

func (p *invalObserver) InvalidateSession() {
	p.invalidated = true
	p.SolverPolicy.InvalidateSession()
}

func (p *invalObserver) Decide(ctx core.Context) modes.Vector {
	p.decisions++
	before, _ := p.SessionStats()
	v := p.SolverPolicy.Decide(ctx)
	after, _ := p.SessionStats()
	if p.invalidated {
		if after.MemoHits > before.MemoHits || after.DeltaSolves > before.DeltaSolves {
			p.badAfterInval++
		} else {
			p.coldAfterInval++
		}
		p.invalidated = false
	}
	return v
}

func deltaOptions(t *testing.T, plan modes.Plan, pol core.Policy, n int, budget func(time.Duration) float64) Options {
	t.Helper()
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	return Options{
		Plan:             plan,
		Budget:           budget,
		Decider:          NewDecider(plan, pol, pred, n, nil, nil, nil),
		DeltaSim:         50 * time.Microsecond,
		DeltasPerExplore: 10,
		Horizon:          4 * time.Millisecond, // 8 decisions
	}
}

// TestEngineDeltaSteadyState is the tentpole's end-to-end positive control:
// with a session-owning BB policy over a one-dirty-core substrate at an
// ample, flat budget, the predictor handshake must reach the session and the
// dirty intervals must be answered by certified delta solves — visible in
// the Result's Obs counters.
func TestEngineDeltaSteadyState(t *testing.T) {
	plan := testPlan(t)
	sub := &driftSub{fakeSub: newFakeSub(plan, []float64{20, 18, 15, 17}, []float64{900, 1000, 700, 850}, 500e-6)}
	pol := core.NewSolverPolicy(&solver.BB{})
	res, err := Run(sub, deltaOptions(t, plan, pol, 4, func(time.Duration) float64 { return 1e12 }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs.DirtyCores == 0 {
		t.Fatalf("handshake never reported dirt to the session: %+v", res.Obs)
	}
	if res.Obs.DeltaSolves == 0 {
		t.Fatalf("no delta solve attempted on one-dirty-core steady state: %+v", res.Obs)
	}
	if res.Obs.DeltaCertified == 0 {
		t.Fatalf("no delta certified at an unconstrained budget (argmax regime): %+v", res.Obs)
	}
	if res.Obs.InvalidateBudgetStep != 0 || res.Obs.InvalidateCoreDeath != 0 ||
		res.Obs.InvalidateEmergency != 0 || res.Obs.InvalidateDegraded != 0 {
		t.Fatalf("clean run recorded invalidations: %+v", res.Obs)
	}
}

// TestEngineBudgetStepInvalidatesSession pins the >25% budget-step
// discontinuity: the session is invalidated exactly once (the step), the
// reason is counted, and the run still completes with warm decisions on both
// flat segments.
func TestEngineBudgetStepInvalidatesSession(t *testing.T) {
	plan := testPlan(t)
	sub := &driftSub{fakeSub: newFakeSub(plan, []float64{20, 18, 15, 17}, []float64{900, 1000, 700, 850}, 500e-6)}
	pol := &invalObserver{SolverPolicy: core.NewSolverPolicy(&solver.BB{})}
	res, err := Run(sub, deltaOptions(t, plan, pol, 4, func(now time.Duration) float64 {
		if now >= 2*time.Millisecond {
			return 30 // −50% ≫ the 25% continuity threshold
		}
		return 60
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs.InvalidateBudgetStep != 1 {
		t.Fatalf("InvalidateBudgetStep = %d, want 1 (one brownout): %+v", res.Obs.InvalidateBudgetStep, res.Obs)
	}
	if res.Obs.WarmHints == 0 {
		t.Fatal("no warm decisions on the flat segments")
	}
	if pol.badAfterInval != 0 || pol.coldAfterInval != 1 {
		t.Fatalf("post-invalidation decisions: %d fast-path (want 0), %d cold (want 1)",
			pol.badAfterInval, pol.coldAfterInval)
	}
}

// TestEngineCoreDeathInvalidatesSession pins the population discontinuity.
// A death zeroes one core's sample — precisely the one-dirty-core shape the
// delta path would patch if allowed — so the death decision itself must be a
// full cold solve, while the steady intervals around it stay on the fast
// paths (proving the scenario actually exercises them).
func TestEngineCoreDeathInvalidatesSession(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 18, 15, 17}, []float64{900, 1000, 700, 850}, 500e-6)
	inj, err := fault.NewInjector(fault.Scenario{
		Deaths: []fault.CoreDeath{{Core: 2, At: 1200 * time.Microsecond}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pol := &invalObserver{SolverPolicy: core.NewSolverPolicy(&solver.BB{})}
	opt := deltaOptions(t, plan, pol, 4, func(time.Duration) float64 { return 1e12 })
	opt.Injector = inj
	res, err := Run(sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs.InvalidateCoreDeath != 1 {
		t.Fatalf("InvalidateCoreDeath = %d, want 1: %+v", res.Obs.InvalidateCoreDeath, res.Obs)
	}
	if pol.badAfterInval != 0 || pol.coldAfterInval != 1 {
		t.Fatalf("death decision: %d fast-path (want 0), %d cold (want 1): %+v",
			pol.badAfterInval, pol.coldAfterInval, res.Obs)
	}
	if res.Obs.SolverMemoHits == 0 {
		t.Fatalf("steady state never memo-answered — the scenario is not isolating the death: %+v", res.Obs)
	}
}

// TestEngineEmergencyInvalidatesSession pins the guard discontinuity: under
// an unmeetable budget the throttle engages once the overshoot run reaches
// its length and never releases, actuating the deepest floor, a vector the
// solver never chose. Every throttled interval must invalidate the session,
// the policy must not run while throttled, and neither the memo nor a
// certified delta may ever answer a decision.
func TestEngineEmergencyInvalidatesSession(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 18, 15, 17}, []float64{900, 1000, 700, 850}, 500e-6)
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	pol := &invalObserver{SolverPolicy: core.NewSolverPolicy(&solver.BB{})}
	opt := deltaOptions(t, plan, pol, 4, func(time.Duration) float64 { return 1 })
	opt.Decider = NewDecider(plan, pol, pred, 4, &core.GuardConfig{}, nil, nil)
	res, err := Run(sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Obs.Decisions - (overshootK - 1); res.Obs.GuardOverrides != want {
		t.Fatalf("GuardOverrides = %d of %d decisions, want all but the first %d (unmeetable budget): %+v",
			res.Obs.GuardOverrides, res.Obs.Decisions, overshootK-1, res.Obs)
	}
	if res.Obs.InvalidateEmergency != res.Obs.GuardOverrides {
		t.Fatalf("InvalidateEmergency = %d != GuardOverrides = %d",
			res.Obs.InvalidateEmergency, res.Obs.GuardOverrides)
	}
	if pol.decisions != overshootK-1 {
		t.Fatalf("the policy decided %d times, want only the %d intervals before the throttle engaged", pol.decisions, overshootK-1)
	}
	if res.Obs.SolverMemoHits != 0 || res.Obs.DeltaCertified != 0 {
		t.Fatalf("memo/delta answered a decision around emergency throttling: %+v", res.Obs)
	}
}

// TestEngineDegradedInvalidatesSession pins the supervisor discontinuity: a
// stall window forces deadline timeouts and degraded-rung answers, and each
// such decision must invalidate the session before the next interval could
// warm-start or delta-patch on top of a vector the solver never produced.
func TestEngineDegradedInvalidatesSession(t *testing.T) {
	const (
		n        = 8
		explore  = 500 * time.Microsecond
		deadline = 100 * time.Microsecond
	)
	plan := testPlan(t)
	sub := newFakeSub(plan,
		[]float64{20, 18, 15, 17, 21, 19, 16, 14},
		[]float64{900, 1000, 700, 850, 950, 880, 760, 990}, explore.Seconds())
	pred := core.Predictor{Plan: plan, ExploreSeconds: explore.Seconds()}
	inj, err := fault.NewInjector(fault.Scenario{
		Stalls: []fault.SolverStall{{At: time.Millisecond, Duration: 1500 * time.Microsecond, Hang: 4 * deadline}},
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := solver.New("bb", solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pol := &invalObserver{SolverPolicy: core.NewSolverPolicy(solver.WithDeadline(bb, deadline/2, 0))}
	budget := func(time.Duration) float64 { return 100 }
	opt := Options{
		Plan:             plan,
		Budget:           budget,
		Decider:          NewDecider(plan, pol, pred, n, nil, &SupervisorConfig{Deadline: deadline}, inj),
		DeltaSim:         explore / 10,
		DeltasPerExplore: 10,
		Horizon:          5 * time.Millisecond,
		Injector:         inj,
		Stages:           append(DefaultChain(budget, "", inj, nil), pacerStage{50 * time.Microsecond}),
	}
	res, err := Run(sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs.DeadlineTimeouts == 0 {
		t.Fatal("stall window produced no deadline timeouts")
	}
	if res.Obs.InvalidateDegraded == 0 {
		t.Fatalf("degraded decisions did not invalidate the session: %+v", res.Obs)
	}
	if pol.badAfterInval != 0 {
		t.Fatalf("%d post-degradation decisions were memo/delta-answered", pol.badAfterInval)
	}
}
