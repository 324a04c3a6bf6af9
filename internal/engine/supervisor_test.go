package engine

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/solver"
)

// supRecord is the slice of a DecisionTrace the supervisor tests assert on.
// DecisionTrace buffers are reused across intervals, so the observer copies
// what it needs.
type supRecord struct {
	Interval   int
	BudgetW    float64
	Rung       int
	Rejected   bool
	Repaired   bool
	PredPowerW float64
	TimedOut   bool
	Final      modes.Vector
}

type supObserver struct{ recs []supRecord }

func (o *supObserver) Decision(t *DecisionTrace) {
	o.recs = append(o.recs, supRecord{
		Interval:   t.Interval,
		BudgetW:    t.BudgetW,
		Rung:       t.SupRung,
		Rejected:   t.SupRejected,
		Repaired:   t.SupRepaired,
		PredPowerW: t.SupPredPowerW,
		TimedOut:   t.SupTimedOut,
		Final:      t.Final.Clone(),
	})
}

func (o *supObserver) RunEnd(r *Result) {}

// supervised returns opt with its decider rebuilt as MaxBIPS under the
// guard's supervisor, on the same plan, width and injector.
func supervised(opt Options, n int, cfg SupervisorConfig) Options {
	opt.Decider.Close()
	pred := core.Predictor{Plan: opt.Plan, ExploreSeconds: 500e-6}
	opt.Decider = NewDecider(opt.Plan, core.MaxBIPS{}, pred, n, nil, &cfg, opt.Injector)
	return opt
}

// TestSupervisorHappyPathIdenticalResult pins the transparency contract: on a
// clean run whose rung-0 decisions always pass the conformance gate, a
// supervised run is bit-identical to the unsupervised one — same mode
// vectors, same power series, same totals — and every decision lands on
// rung 0 with no rejects, repairs, or timeouts.
func TestSupervisorHappyPathIdenticalResult(t *testing.T) {
	plan := testPlan(t)
	mk := func() (*fakeSub, Options) {
		sub := newFakeSub(plan, []float64{20, 18, 16, 14}, []float64{4e9, 3e9, 2e9, 1e9}, 500e-6)
		opt := baseOptions(t, plan, 4, 0.75*68)
		opt.Horizon = 10 * time.Millisecond
		return sub, opt
	}
	sub, opt := mk()
	plain := runFake(t, sub, opt)

	sub2, opt2 := mk()
	res := runFake(t, sub2, supervised(opt2, 4, SupervisorConfig{}))

	if len(res.Modes) != len(plain.Modes) {
		t.Fatalf("supervised run made %d decisions, unsupervised %d", len(res.Modes), len(plain.Modes))
	}
	for i := range plain.Modes {
		if !res.Modes[i].Equal(plain.Modes[i]) {
			t.Fatalf("interval %d: supervised %v != unsupervised %v", i, res.Modes[i], plain.Modes[i])
		}
	}
	for i := range plain.ChipPowerW {
		if res.ChipPowerW[i] != plain.ChipPowerW[i] {
			t.Fatalf("delta %d: chip power %v != %v", i, res.ChipPowerW[i], plain.ChipPowerW[i])
		}
	}
	if res.TotalInstr != plain.TotalInstr || res.EnergyJ != plain.EnergyJ {
		t.Fatalf("totals diverge: instr %v/%v energy %v/%v",
			res.TotalInstr, plain.TotalInstr, res.EnergyJ, plain.EnergyJ)
	}
	if res.Obs.SupervisorRungs[0] != res.Obs.Decisions ||
		res.Obs.ConformanceRejects != 0 || res.Obs.ConformanceRepairs != 0 ||
		res.Obs.DeadlineTimeouts != 0 || res.Obs.DegradedDecisions != 0 {
		t.Fatalf("clean run degraded: %+v", res.Obs)
	}
}

// pacerStage gives every interval a wall-clock floor. Sim time is decoupled
// from wall time, so without it a post-fault drain (bounded in wall time)
// could span an unbounded number of sim intervals and make the recovery
// bound untestable.
type pacerStage struct{ d time.Duration }

func (p pacerStage) Name() string         { return "pacer" }
func (p pacerStage) Apply(st *Step) error { time.Sleep(p.d); return nil }

// hangClock is a watchdog clock whose time moves only by the injected hang.
// The worker's sleep advances it, fires the armed deadline when the hang
// outlasts it, waits until the guard has taken that tick, and returns: a
// hang shorter than the deadline, or none, never times a decision out, and
// one longer always does, however the host schedules the two goroutines.
type hangClock struct {
	mu    sync.Mutex
	now   time.Duration
	due   time.Duration // the armed deadline, while armed
	armed bool
	tick  chan time.Time // buffered like a timer's channel
}

func newHangClock() *hangClock { return &hangClock{tick: make(chan time.Time, 1)} }

func (k *hangClock) arm(d time.Duration) <-chan time.Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.due, k.armed = k.now+d, true
	return k.tick
}

func (k *hangClock) disarm() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.armed = false
	select {
	case <-k.tick:
	default:
	}
}

func (k *hangClock) sleep(d time.Duration) {
	k.mu.Lock()
	k.now += d
	fired := k.armed && k.now >= k.due
	if fired {
		k.armed = false
		k.tick <- time.Time{}
	}
	k.mu.Unlock()
	// The guard is between arming and its select, or in it: wait until it
	// has taken the tick, so the worker's answer cannot race it. A guard
	// that never takes it gets the answer after a second instead, and the
	// test fails on the missing timeout rather than hanging.
	for give := time.Now().Add(time.Second); fired && len(k.tick) > 0 && time.Now().Before(give); {
		runtime.Gosched()
	}
}

// TestSupervisorStallAcceptance64 is the headline acceptance scenario: a
// 64-core maxbips-bb run with a 100 µs decision deadline and an injected
// solver stall (each in-window decision hangs 400 µs, 4× the deadline). The
// run must never miss an actuation interval — the watchdog abandons the
// wedged solve and the ladder answers from a lower rung — and must be back
// on rung 0 well before the end of the run once the fault clears. The
// watchdog runs on hangClock, so the outcome follows from the stall alone:
// on the wall clock a busy host could delay a healthy decision past the
// deadline. The wall-clock watchdog abandoning a real hang is exercised by
// TestDeciderContract and TestEngineDegradedInvalidatesSession.
func TestSupervisorStallAcceptance64(t *testing.T) {
	const (
		n        = 64
		explore  = 500 * time.Microsecond
		deadline = 100 * time.Microsecond
		hang     = 400 * time.Microsecond
		// Stall window: decisions at sim 2.0–3.5 ms (intervals 4..7).
		stallAt  = 2 * time.Millisecond
		stallDur = 2 * time.Millisecond
		horizon  = 60 * time.Millisecond // 120 intervals; clear at interval 8
		clearIv  = 8
		recoverK = 60 // paced: 60 intervals × 50 µs ≫ the 450 µs worst-case drain
	)
	plan := testPlan(t)
	sub := benchSub(t, n)
	pred := core.Predictor{Plan: plan, ExploreSeconds: explore.Seconds()}
	inj, err := fault.NewInjector(fault.Scenario{
		Stalls: []fault.SolverStall{{At: stallAt, Duration: stallDur, Hang: hang}},
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := solver.New("bb", solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the front-end wiring: the solver carries a cooperative wall
	// deadline at half the watchdog's, so a healthy rung-0 decision always
	// returns in time even at 64 cores.
	pol := core.SolverPolicy{Solver: solver.WithDeadline(bb, deadline/2, 0), Label: "maxbips-bb"}
	obs := &supObserver{}
	budget := func(time.Duration) float64 { return 0.70 * 21 * n }
	dec := NewDecider(plan, pol, pred, n, nil, &SupervisorConfig{Deadline: deadline}, inj)
	dec.(*guard).clock = newHangClock()
	opt := Options{
		Plan:             plan,
		Budget:           budget,
		Decider:          dec,
		DeltaSim:         explore / 10,
		DeltasPerExplore: 10,
		Horizon:          horizon,
		Injector:         inj,
		Observer:         obs,
		Stages:           append(DefaultChain(budget, "", inj, nil), pacerStage{50 * time.Microsecond}),
	}
	res := runFake(t, sub, opt)

	wantIv := int(horizon / explore)
	if res.Obs.Decisions != wantIv || len(obs.recs) != wantIv {
		t.Fatalf("actuated %d of %d intervals — the supervisor missed decisions", res.Obs.Decisions, wantIv)
	}
	if res.Obs.DeadlineTimeouts == 0 {
		t.Fatal("stall window produced no deadline timeouts")
	}
	sawDegraded := false
	for _, r := range obs.recs[4:clearIv] {
		if r.Rung > 0 {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("no degraded decision inside the stall window")
	}
	for _, r := range obs.recs[clearIv+recoverK:] {
		if r.Rung != 0 {
			t.Fatalf("interval %d still on rung %d, %d intervals after fault clear",
				r.Interval, r.Rung, r.Interval-clearIv)
		}
		if r.TimedOut {
			t.Fatalf("interval %d timed out after fault clear", r.Interval)
		}
	}
	if res.Obs.SupervisorRungs[0] == 0 {
		t.Fatal("run never reached rung 0")
	}
}

// isDeepest reports v is the uniform emergency floor.
func isDeepest(plan modes.Plan, v modes.Vector) bool {
	floor := modes.Mode(plan.NumModes() - 1)
	for _, m := range v {
		if m != floor {
			return false
		}
	}
	return true
}

// TestSupervisorConformanceProperty is the property test behind the chaos
// harness's conformance invariant: across seeded random fault schedules (in
// deterministic sync mode), the supervisor never actuates a vector whose
// predicted power exceeds budget × (1+GuardTolerance) — except the uniform
// deepest floor, which is the least the chip can draw and is actuated
// regardless.
func TestSupervisorConformanceProperty(t *testing.T) {
	plan := testPlan(t)
	const n = 8
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	tol := GuardTolerance
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := fault.Scenario{Seed: seed + 1}
		if rng.Intn(2) == 0 {
			sc.PowerNoiseSigma = 0.3 * rng.Float64()
		}
		if rng.Intn(2) == 0 {
			sc.DropProb = 0.3 * rng.Float64()
		}
		sc.Spikes = []fault.BudgetSpike{{
			At:       time.Duration(rng.Intn(4)) * time.Millisecond,
			Duration: time.Duration(1+rng.Intn(3)) * time.Millisecond,
			Scale:    []float64{0, 0.05, 0.5, 1.5}[rng.Intn(4)],
		}}
		if rng.Intn(3) == 0 {
			sc.Stuck = []fault.StuckFault{{Core: rng.Intn(n), At: time.Duration(rng.Intn(5)) * time.Millisecond, PowerW: math.NaN()}}
		}
		inj, err := fault.NewInjector(sc, n)
		if err != nil {
			t.Fatal(err)
		}
		sub := benchSub(t, n)
		budget := (0.5 + 0.4*rng.Float64()) * 21 * n
		obs := &supObserver{}
		opt := Options{
			Plan:             plan,
			Budget:           func(time.Duration) float64 { return budget },
			Decider:          NewDecider(plan, core.MaxBIPS{}, pred, n, nil, &SupervisorConfig{}, inj),
			DeltaSim:         50 * time.Microsecond,
			DeltasPerExplore: 10,
			Horizon:          10 * time.Millisecond,
			Injector:         inj,
			Observer:         obs,
		}
		res := runFake(t, sub, opt)
		if res.Obs.Decisions == 0 {
			t.Fatalf("seed %d: no decisions", seed)
		}
		for _, r := range obs.recs {
			limit := r.BudgetW*(1+tol) + 1e-9*(1+math.Abs(r.BudgetW))
			if r.PredPowerW > limit && !isDeepest(plan, r.Final) {
				t.Fatalf("seed %d interval %d: actuated rung-%d vector predicted at %.4f W over budget %.4f W (limit %.4f)",
					seed, r.Interval, r.Rung, r.PredPowerW, r.BudgetW, limit)
			}
			if math.IsNaN(r.PredPowerW) || math.IsInf(r.PredPowerW, 0) {
				t.Fatalf("seed %d interval %d: non-finite predicted power", seed, r.Interval)
			}
		}
	}
}

// TestSupervisorSyncDeterministic pins that the sync supervisor (Deadline 0)
// is bit-identical across reruns even under faults — the property the chaos
// harness's determinism invariant relies on.
func TestSupervisorSyncDeterministic(t *testing.T) {
	plan := testPlan(t)
	run := func() (*Result, []supRecord) {
		inj, err := fault.NewInjector(fault.Scenario{Seed: 5, PowerNoiseSigma: 0.2, DropProb: 0.1,
			Spikes: []fault.BudgetSpike{{At: time.Millisecond, Duration: 2 * time.Millisecond, Scale: 0.05}}}, 4)
		if err != nil {
			t.Fatal(err)
		}
		obs := &supObserver{}
		opt := baseOptions(t, plan, 4, 0.6*68)
		opt.Horizon = 8 * time.Millisecond
		opt.Injector = inj
		opt.Observer = obs
		res := runFake(t, newFakeSub(plan, []float64{20, 18, 16, 14}, []float64{4e9, 3e9, 2e9, 1e9}, 500e-6),
			supervised(opt, 4, SupervisorConfig{}))
		return res, obs.recs
	}
	r1, t1 := run()
	r2, t2 := run()
	if r1.TotalInstr != r2.TotalInstr || r1.EnergyJ != r2.EnergyJ || r1.Obs.SupervisorRungs != r2.Obs.SupervisorRungs {
		t.Fatalf("sync supervisor rerun diverged: %+v vs %+v", r1.Obs, r2.Obs)
	}
	for i := range t1 {
		if !t1[i].Final.Equal(t2[i].Final) || t1[i].Rung != t2[i].Rung || t1[i].PredPowerW != t2[i].PredPowerW {
			t.Fatalf("interval %d diverged across reruns: %+v vs %+v", i, t1[i], t2[i])
		}
	}
}

// TestOptionsValidate is the table-driven typed-error check for
// engine.Options and the SupervisorConfig front ends pass to NewDecider.
func TestOptionsValidate(t *testing.T) {
	plan := testPlan(t)
	good := func() Options { return baseOptions(t, plan, 4, 60) }
	cases := []struct {
		name  string
		mut   func(*Options)
		sup   *SupervisorConfig // validated in place of the options when set
		field string
	}{
		{"nil decider", func(o *Options) { o.Decider = nil }, nil, "Decider"},
		{"nil budget", func(o *Options) { o.Budget = nil }, nil, "Budget"},
		{"zero delta", func(o *Options) { o.DeltaSim = 0 }, nil, "DeltaSim"},
		{"negative delta", func(o *Options) { o.DeltaSim = -time.Microsecond }, nil, "DeltaSim"},
		{"zero deltas per explore", func(o *Options) { o.DeltasPerExplore = 0 }, nil, "DeltasPerExplore"},
		{"negative horizon", func(o *Options) { o.Horizon = -time.Millisecond }, nil, "Horizon"},
		{"negative explore", func(o *Options) { o.Explore = -time.Millisecond }, nil, "Explore"},
		{"negative supervisor deadline", nil, &SupervisorConfig{Deadline: -1}, "Supervisor.Deadline"},
		{"negative node budget", nil, &SupervisorConfig{NodeBudget: -1}, "Supervisor.NodeBudget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.sup != nil {
				err = tc.sup.Validate("engine")
			} else {
				opt := good()
				tc.mut(&opt)
				sub := newFakeSub(plan, []float64{20, 18, 16, 14}, []float64{4e9, 3e9, 2e9, 1e9}, 500e-6)
				_, err = Run(sub, opt)
			}
			if err == nil {
				t.Fatal("accepted")
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %T (%v) is not *OptionError", err, err)
			}
			if oe.Field != tc.field || oe.Component != "engine" {
				t.Fatalf("rejected %s field %q, want engine field %q", oe.Component, oe.Field, tc.field)
			}
		})
	}
}

// TestSupervisorHappyPathZeroMarginalAllocs pins the supervisor's steady-state
// cost on the rung-0 happy path: per extra explore interval it must allocate
// exactly what the unsupervised engine allocates — zero marginal allocations
// of its own (the matrices and sample buffers are built once and reused).
func TestSupervisorHappyPathZeroMarginalAllocs(t *testing.T) {
	plan := testPlan(t)
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	run := func(sup bool, horizon time.Duration) float64 {
		return testing.AllocsPerRun(10, func() {
			var cfg *SupervisorConfig
			if sup {
				cfg = &SupervisorConfig{}
			}
			opt := Options{
				Plan:             plan,
				Budget:           func(time.Duration) float64 { return 63 },
				Decider:          NewDecider(plan, core.MaxBIPS{}, pred, 4, nil, cfg, nil),
				DeltaSim:         50 * time.Microsecond,
				DeltasPerExplore: 10,
				Horizon:          horizon,
			}
			if _, err := Run(benchSub(t, 4), opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Marginal allocations per 10 extra intervals, supervised minus
	// unsupervised: the supervisor's fixed setup cost (its buffers, the
	// watchdog-free sync path has no goroutine) cancels in the difference of
	// differences, leaving only its per-interval allocation — pinned at 0.
	supGrowth := run(true, 10*time.Millisecond) - run(true, 5*time.Millisecond)
	plainGrowth := run(false, 10*time.Millisecond) - run(false, 5*time.Millisecond)
	if marginal := supGrowth - plainGrowth; marginal != 0 {
		t.Fatalf("supervisor allocates %.1f per 10 intervals on the happy path, want 0 (sup %v, plain %v)",
			marginal, supGrowth, plainGrowth)
	}
}
