// Package engine is the substrate-agnostic global power manager control loop
// — the paper's §2/§5.5 sense → predict → decide → actuate cycle, extracted
// so the trace-based CMP analysis tool (internal/cmpsim) and the cycle-level
// full-CMP simulator (internal/fullsim) run the *same* loop instead of two
// divergent copies.
//
// The engine owns everything substrate-independent: explore/delta-sim
// cadence, the decision middleware chain (budget source → fault-injected
// budget → thermal clamp → fault-injected observation), the §5.1
// synchronized-stall charging with worst-case-endpoint stall power, the
// per-interval sample averaging (including truncated final intervals), the
// thermal integration, and all accounting (energy, overshoot integrals,
// guard interventions) in one Result. A Substrate supplies the simulated
// hardware: bootstrap probe, per-delta advancement split into stall and
// execution, completion reporting, and mode-power estimates for the stall
// endpoints. A Decider supplies the manager (plain, guarded or replayed)
// through one four-method contract (Decide, InvalidateSession, Stats,
// Close); the loop owns the vector in force and probes the decider for
// nothing else, so no `if guarded` forks survive in the loop. The guard is
// one stage around the manager: it sanitizes the samples, runs the hard-cap
// throttle, and, when a supervisor is armed, bounds the policy by a
// watchdog and gates its vector on the matrices it decided on (guard.go).
package engine

import (
	"math"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/metrics"
	"gpm/internal/modes"
	"gpm/internal/thermal"
	"gpm/internal/workload"
)

// Substrate is the simulated hardware under global power management.
// Implementations are single-run and stateful: the engine advances them
// monotonically in delta-sim steps.
type Substrate interface {
	// NumCores returns the chip width.
	NumCores() int
	// Bootstrap probes each core's behaviour over one explore interval with
	// every core at Turbo and returns the per-core samples the local
	// monitors would report before the first decision. Whether the probe
	// consumes simulated time is substrate-defined (the trace players peek
	// without moving; the cycle-level chip runs a real probe interval).
	Bootstrap() []core.Sample
	// ModePowerW estimates core c's average power in mode m at the core's
	// current program position — the §5.1 worst-case transition endpoints
	// are charged at max(ModePowerW(old), ModePowerW(new)).
	ModePowerW(c int, m modes.Mode) float64
	// DeltaStep advances the live cores by execSec seconds of execution in
	// vector v — the remainder of the delta interval is synchronized stall,
	// which the engine charges separately — and fills energyJ/instr with
	// each core's execution-window energy and committed instructions.
	// Cores with live[c]==false must not advance and report zero. It
	// returns whether a live core's program completed during the step.
	DeltaStep(v modes.Vector, execSec float64, live []bool, energyJ, instr []float64) (completed bool)
	// Finished reports that core c's program has completed (§5.1 stops the
	// run at the first completion). A core finishes only in Bootstrap or in
	// a DeltaStep that reports a completion, so the loop polls Finished
	// only once one of those has.
	Finished(c int) bool
	// Lookahead returns the oracle probe (§5.6), or nil if the substrate
	// cannot see the future (the cycle-level chip cannot).
	Lookahead() func(c int, m modes.Mode) (powerW, instr float64)
	// MemBound returns the per-core memory-boundedness ranking, or nil.
	MemBound() []float64
}

// Decider is the one contract between the loop and a global power manager.
// Three types implement it: *core.Manager (plain), the engine's guard
// (guarded, supervised or both), and obs.ReplayDecider.
//
// Vector ownership: the loop owns the vector in force and hands it over as
// d.Current; no decider keeps a copy between decisions. The vector Decide
// returns belongs to the decider and stays valid until its next Decide,
// together with the report's Candidate. The loop copies it before then and
// never mutates it, so a decider may return a buffer it reuses every
// decision. Likewise d.Current and d.Samples belong to the loop: a
// decider must not mutate them or keep them past the call.
type Decider interface {
	// Decide performs one explore-boundary decision and returns the next
	// mode vector with the decider's report on it.
	Decide(d core.Decision) (modes.Vector, core.Report)
	// InvalidateSession drops the policy's solver-session memo and delta
	// certificate before the next decision; a no-op without a session.
	InvalidateSession()
	// Stats reports the cumulative guard, node and session counters.
	Stats() core.RunStats
	// Close releases what the decider owns (session, watchdog worker).
	// Idempotent; the decider must not decide after.
	Close()
}

// Compile-time proof that the manager and the guard satisfy Decider.
var (
	_ Decider = (*core.Manager)(nil)
	_ Decider = (*guard)(nil)
)

// NewDecider builds the decision stack for n cores over any
// core.MatrixPredictor: the plain manager, or the guard around it when
// guardCfg arms the hard cap or sup arms the supervisor. Either one makes
// the guard sanitize the samples. inj, when non-nil, supplies the injected
// decision hangs the supervisor's watchdog abandons; callers validate sup
// first (SupervisorConfig.Validate).
func NewDecider(plan modes.Plan, policy core.Policy, pred core.MatrixPredictor, n int, guardCfg *core.GuardConfig, sup *SupervisorConfig, inj *fault.Injector) Decider {
	m := core.NewManager(plan, policy, pred, n)
	if guardCfg == nil && sup == nil {
		return m
	}
	return newGuard(m, pred.Base(), plan, n, guardCfg != nil, sup, inj)
}

// Options configures one engine run. Plan, Budget, Decider, DeltaSim,
// DeltasPerExplore and Horizon are required.
type Options struct {
	// Plan is the DVFS mode plan (transition times, frequency scales).
	Plan modes.Plan
	// Budget returns the planned chip power budget in watts at time t.
	Budget func(t time.Duration) float64
	// Decider is the global manager making explore-boundary decisions. The
	// loop owns it from New on and closes it in Close.
	Decider Decider
	// DeltaSim is the statistics interval; DeltasPerExplore of them form one
	// explore (decision) interval.
	DeltaSim         time.Duration
	DeltasPerExplore int
	// Horizon bounds the simulated time.
	Horizon time.Duration
	// Thermal, when non-nil, closes the temperature loop.
	Thermal *thermal.Governor
	// Injector, when non-nil, perturbs the observation path.
	Injector *fault.Injector
	// Stages overrides the decision middleware chain; nil selects
	// DefaultChain(Budget, ErrPrefix, Injector, Thermal).
	Stages []Stage
	// Observer, when non-nil, receives one structured DecisionTrace per
	// explore interval and the Result at the end of the run (see
	// internal/obs for JSONL and in-memory implementations). Nil is the
	// zero-overhead path: no trace is constructed and no clock is read.
	Observer Observer
	// ErrPrefix names the front end in engine errors; empty = "engine".
	ErrPrefix string
	// Combo and PolicyName annotate the Result.
	Combo      workload.Combo
	PolicyName string
	// Explore is the explore interval for accounting (recovery latency);
	// zero derives DeltaSim × DeltasPerExplore.
	Explore time.Duration
}

// Loop is one in-flight engine run, carved out of the monolithic Run so a
// caller can interleave many runs on a shared event clock — the datacenter
// fleet tier (internal/fleet) steps one Loop per chip, updating each chip's
// budget between steps. New builds the loop (bootstrap probe included),
// StepDelta advances exactly one delta-sim interval (running the explore-
// boundary decision first when one is due), and Finish seals the accounting
// and returns the Result. Run composes the three; both paths execute the
// identical operation sequence, bit for bit (pinned by the cmpsim goldens).
//
// A Loop is single-goroutine: callers that step several loops concurrently
// must keep each loop on one worker at a time.
type Loop struct {
	sub     Substrate
	opt     Options
	n       int
	deltaSC float64
	explore time.Duration
	inj     *fault.Injector
	stages  []Stage
	decider Decider
	res     *Result
	obs     Observer

	dt          DecisionTrace // reused across intervals when observed
	stageTraces []StageTrace
	st          Step // the decision's middleware state, reused so it never escapes

	current modes.Vector // the vector in force; the loop is its only owner
	// anyDone is set once some core has finished: after a Bootstrap that
	// left one finished (the cycle-level probe consumes simulated time) or
	// a DeltaStep that reported a completion. Until then every Finished
	// poll would answer false, so the loop skips them.
	anyDone      bool
	samples      []core.Sample
	chipMeasured float64 // the independent chip-level (VRM) power sensor
	lookahead    func(c int, m modes.Mode) (powerW, instr float64)
	memBound     []float64

	live          []bool
	execE, execI  []float64
	intervalPower []float64
	intervalInstr []float64
	stallPower    []float64

	// est is the horizon's delta count (capped): the size the per-delta
	// series, MaxTempC and the Modes backing get when first used. modesBuf
	// is the unused tail of the backing that Result.Modes' vectors view.
	est      int
	modesBuf modes.Vector

	now         time.Duration
	done        bool
	degradedRun int // current consecutive rung>0 episode, for LongestDegraded

	// Warm-start plumbing: the loop decides per interval whether the
	// previous actuated vector is a valid hint, and when to invalidate the
	// decider's solver session (sessionOn: the policy owns one). Budget
	// jumps and core death/completion are checked at decision time against
	// prevBudget/prevDeadDone.
	sessionOn    bool
	prevBudget   float64
	prevDeadDone int

	// Intra-interval cursor: d deltas of the current explore interval have
	// run (0 = a decision is due), simmed of them were actually simulated.
	d         int
	simmed    int
	budget    float64
	stallLeft float64

	closed   bool
	finished bool
}

// New validates the options and builds a steppable loop: the substrate is
// bootstrap-probed and the first decision is pending. The loop owns
// opt.Decider from here on, and closes it when validation fails. Callers
// must Close the loop (Finish does) — Run defers it — which closes the
// decider.
func New(sub Substrate, opt Options) (*Loop, error) {
	if err := opt.validate(); err != nil {
		if opt.Decider != nil {
			opt.Decider.Close()
		}
		return nil, err
	}
	n := sub.NumCores()
	explore := opt.Explore
	if explore == 0 {
		explore = opt.DeltaSim * time.Duration(opt.DeltasPerExplore)
	}
	inj := opt.Injector
	stages := opt.Stages
	if stages == nil {
		stages = DefaultChain(opt.Budget, opt.ErrPrefix, inj, opt.Thermal)
	}

	l := &Loop{
		sub:     sub,
		opt:     opt,
		n:       n,
		deltaSC: opt.DeltaSim.Seconds(),
		explore: explore,
		inj:     inj,
		stages:  stages,
		decider: opt.Decider,
	}

	res := &Result{
		Combo:          opt.Combo,
		Policy:         opt.PolicyName,
		DeltaSim:       opt.DeltaSim,
		FirstCompleted: -1,
		PerCoreInstr:   make([]float64, n),
	}
	res.Obs.StageOverrides = make([]StageOverride, len(stages))
	for i, s := range stages {
		res.Obs.StageOverrides[i].Stage = s.Name()
	}
	// Pre-size the delta-resolution series so steady-state intervals append
	// without reallocating (capped so pathological horizons don't reserve
	// unbounded memory up front). The per-core series, MaxTempC and the
	// Modes backing are sized to the same estimate at first use instead:
	// a loop built long before it runs (the fleet builds every chip's loop
	// up front) holds no per-core storage until it steps.
	est := int((opt.Horizon + opt.DeltaSim - 1) / opt.DeltaSim)
	if est > 4096 {
		est = 4096
	}
	l.est = est
	res.ChipPowerW = make([]float64, 0, est)
	res.BudgetW = make([]float64, 0, est)
	res.Modes = make([]modes.Vector, 0, est/opt.DeltasPerExplore+1)
	l.res = res

	l.obs = opt.Observer
	l.sessionOn = l.decider.Stats().SessionOn

	// Bootstrap sample: the local monitors report each core's behaviour at
	// Turbo before the first decision; cores dead at t=0 report nothing.
	l.current = modes.Uniform(n, modes.Turbo)
	l.samples = sub.Bootstrap()
	for c := range l.samples {
		if inj != nil && inj.CoreDead(c, 0) {
			l.samples[c] = core.Sample{}
		}
		l.chipMeasured += l.samples[c].PowerW
		l.anyDone = l.anyDone || sub.Finished(c)
	}

	l.lookahead = sub.Lookahead()
	l.memBound = sub.MemBound()
	l.live = make([]bool, n)
	l.execE = make([]float64, n)
	l.execI = make([]float64, n)
	l.intervalPower = make([]float64, n)
	l.intervalInstr = make([]float64, n)
	l.stallPower = make([]float64, n)
	if l.obs != nil {
		l.stageTraces = make([]StageTrace, 0, len(stages))
	}
	return l, nil
}

// Now returns the loop's simulated time.
func (l *Loop) Now() time.Duration { return l.now }

// Done reports that the loop has reached its horizon or a first program
// completion (§5.1) and will make no further progress.
func (l *Loop) Done() bool { return l.done || l.now >= l.opt.Horizon }

// Result exposes the in-progress accounting: series grow as the loop steps.
// Callers may read it between steps (the fleet tier drains per-delta
// committed-instruction rows this way) but must not mutate it; Finish seals
// and returns the same pointer.
func (l *Loop) Result() *Result { return l.res }

// decide runs the decision middleware chain and one explore-boundary
// decision, arming the interval's stall accounting.
func (l *Loop) decide() error {
	res, obs, n := l.res, l.obs, l.n
	l.st = Step{Now: l.now, TrueSamples: l.samples, Samples: l.samples, ChipPowerW: l.chipMeasured}
	st := &l.st
	if obs != nil {
		l.stageTraces = l.stageTraces[:0]
	}
	for i, stage := range l.stages {
		prevB := st.BudgetW
		prevSamples := st.Samples
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		if err := stage.Apply(st); err != nil {
			return err
		}
		// The first stage seeds the budget; later stages that move it,
		// or that swap the observation, overrode something upstream.
		override := i > 0 && (st.BudgetW != prevB || !sameSamples(prevSamples, st.Samples))
		if override {
			res.Obs.StageOverrides[i].Count++
		}
		if obs != nil {
			l.stageTraces = append(l.stageTraces, StageTrace{
				Name:     res.Obs.StageOverrides[i].Stage,
				BudgetW:  st.BudgetW,
				Override: override,
				DurNs:    time.Since(t0).Nanoseconds(),
			})
		}
	}
	l.budget = st.BudgetW
	// Warm-start hint: hand the previous actuated vector to the decider
	// only while the decision context is continuous. A budget step of more
	// than 25% (a spike or brownout) or any change in the dead/finished
	// core population withholds it — the previous vector is then a poor
	// (or shape-stale) seed, and a discontinuity is exactly when a fresh
	// cold solve is cheapest to afford. A guard intervention does not: the
	// hint only raises BB's floor, and only once usableHint accepts it
	// against the current instance (DESIGN.md §13.3).
	deadDone := 0
	for c := 0; c < n; c++ {
		if l.coreFinished(c) || (l.inj != nil && l.inj.CoreDead(c, l.now)) {
			deadDone++
		}
	}
	warm := res.Obs.Decisions > 0
	if deadDone != l.prevDeadDone {
		warm = false
		// The live-core population changed shape: the session's memoized
		// optimum and delta certificate describe a chip that no longer
		// exists. Drop them before the decision so the delta fast path
		// cannot patch against stale structure.
		l.invalidate(&res.Obs.InvalidateCoreDeath)
	}
	if l.prevBudget != 0 && math.Abs(l.budget-l.prevBudget) > 0.25*math.Abs(l.prevBudget) {
		warm = false
		l.invalidate(&res.Obs.InvalidateBudgetStep)
	}
	l.prevDeadDone = deadDone
	l.prevBudget = l.budget
	if warm {
		res.Obs.WarmHints++
	}
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	next, rep := l.decider.Decide(core.Decision{
		BudgetW:    l.budget,
		ChipPowerW: st.ChipPowerW,
		Current:    l.current,
		Samples:    st.Samples,
		Lookahead:  l.lookahead,
		MemBound:   l.memBound,
		Now:        l.now,
		Warm:       warm,
	})
	if rep.Emergency {
		res.Obs.GuardOverrides++
	}
	if rep.Supervised {
		res.Obs.SupervisorRungs[rep.Rung]++
		if rep.Rejected {
			res.Obs.ConformanceRejects++
		}
		if rep.Repaired {
			res.Obs.ConformanceRepairs++
		}
		if rep.TimedOut {
			res.Obs.DeadlineTimeouts++
		}
		if rep.Wedged {
			res.Obs.WedgedDecisions++
		}
		if rep.Rung > 0 {
			res.Obs.DegradedDecisions++
			l.degradedRun++
			if l.degradedRun > res.Obs.LongestDegraded {
				res.Obs.LongestDegraded = l.degradedRun
			}
		} else {
			l.degradedRun = 0
		}
	}
	// A guard intervention actuates a vector the policy's solver never
	// chose: the hard-cap throttle, or a degraded rung (which an abandoned
	// or wedged solve always lands on). The session's memo and delta
	// certificate then disagree with the chip state, so the next decision
	// must not answer from them or patch a delta on top of them.
	if rep.Emergency || rep.Rung > 0 {
		cause := &res.Obs.InvalidateDegraded
		if rep.Emergency {
			cause = &res.Obs.InvalidateEmergency
		}
		l.invalidate(cause)
	}
	stall := l.opt.Plan.MaxTransitionBetween(l.current, next)
	// Per-core stall power: the worst-case endpoint of the transition
	// (§5.1: execution halts, CPU power is still consumed). Skipped
	// cores are zeroed explicitly: the buffer is reused across
	// intervals, and finished/dead states are monotone, so a stale
	// entry could otherwise never be read — but zero makes that local.
	for c := 0; c < n; c++ {
		if l.coreFinished(c) || (l.inj != nil && l.inj.CoreDead(c, l.now)) {
			l.stallPower[c] = 0
			continue
		}
		pOld := l.sub.ModePowerW(c, l.current[c])
		pNew := l.sub.ModePowerW(c, next[c])
		if pOld > pNew {
			l.stallPower[c] = pOld
		} else {
			l.stallPower[c] = pNew
		}
	}
	if obs != nil {
		l.dt = DecisionTrace{
			Interval:       res.Obs.Decisions,
			Now:            l.now,
			BudgetW:        l.budget,
			ChipPowerW:     st.ChipPowerW,
			TrueSamples:    st.TrueSamples,
			Samples:        st.Samples,
			Stages:         l.stageTraces,
			Final:          next,
			GuardEmergency: rep.Emergency,
			Stall:          stall,
			DecideNs:       time.Since(t0).Nanoseconds(),
		}
		if rep.Supervised {
			l.dt.Supervised = true
			l.dt.SupRung = rep.Rung
			l.dt.SupRejected = rep.Rejected
			l.dt.SupRepaired = rep.Repaired
			l.dt.SupPredPowerW = rep.PredPowerW
			l.dt.SupTimedOut = rep.TimedOut
		}
		if rep.Candidate != nil && !rep.Candidate.Equal(next) {
			l.dt.Candidate = rep.Candidate
		}
		obs.Decision(&l.dt)
		res.Obs.TraceRecords++
	}
	res.Obs.Decisions++
	// next belongs to the decider and is valid only until its next
	// decision: adopt a copy.
	copy(l.current, next)
	l.recordModes()
	res.TransitionStall += stall

	l.stallLeft = stall.Seconds()
	for c := 0; c < n; c++ {
		l.intervalPower[c] = 0
		l.intervalInstr[c] = 0
	}
	l.simmed = 0 // deltas actually simulated; < DeltasPerExplore when truncated
	return nil
}

// coreFinished reports core c's completion, polling the substrate only once
// some core has finished.
func (l *Loop) coreFinished(c int) bool { return l.anyDone && l.sub.Finished(c) }

// invalidate drops the decider's solver session at a discontinuity and
// counts it under the discontinuity's class, when the policy owns a session.
func (l *Loop) invalidate(count *int) {
	if l.sessionOn {
		l.decider.InvalidateSession()
		*count++
	}
}

// recordModes appends the vector in force to Result.Modes as a capped view
// into the loop's mode backing, allocating a backing for the rest of the
// estimated decisions whenever the current one is used up.
func (l *Loop) recordModes() {
	n := l.n
	if len(l.modesBuf) < n {
		l.modesBuf = make(modes.Vector, n*max(cap(l.res.Modes)-len(l.res.Modes), 1))
	}
	v := l.modesBuf[:n:n]
	l.modesBuf = l.modesBuf[n:]
	copy(v, l.current)
	l.res.Modes = append(l.res.Modes, v)
}

// delta advances the substrate by one delta-sim interval in the current
// vector, charging any remaining synchronized stall first.
func (l *Loop) delta() {
	res, n, deltaSec := l.res, l.n, l.deltaSC
	l.simmed++
	rowP := res.CorePowerW.appendRow(n, l.est)
	rowI := res.CoreInstr.appendRow(n, l.est)
	var chip float64
	stl := l.stallLeft
	if stl > deltaSec {
		stl = deltaSec
	}
	l.stallLeft -= stl
	exec := deltaSec - stl
	for c := 0; c < n; c++ {
		l.live[c] = !l.coreFinished(c) && (l.inj == nil || !l.inj.CoreDead(c, l.now))
		l.execE[c], l.execI[c] = 0, 0
	}
	if exec > 0 && l.sub.DeltaStep(l.current, exec, l.live, l.execE, l.execI) {
		l.anyDone = true
	}
	// The run totals accumulate in locals, in the same order, so the adds
	// do not wait on a store and reload through res each core.
	totalInstr, energyJ := res.TotalInstr, res.EnergyJ
	for c := 0; c < n; c++ {
		var e, in float64
		if l.live[c] {
			e = l.stallPower[c] * stl
			if exec > 0 {
				e += l.execE[c]
				in = l.execI[c]
			}
		}
		rowP[c] = e / deltaSec
		rowI[c] = in
		chip += rowP[c]
		l.intervalPower[c] += rowP[c]
		l.intervalInstr[c] += in
		res.PerCoreInstr[c] += in
		totalInstr += in
		energyJ += e
	}
	res.TotalInstr, res.EnergyJ = totalInstr, energyJ
	if l.opt.Thermal != nil {
		l.opt.Thermal.State().Step(rowP, l.opt.DeltaSim)
		if res.MaxTempC == nil {
			res.MaxTempC = make([]float64, 0, max(l.est, 1))
		}
		res.MaxTempC = append(res.MaxTempC, l.opt.Thermal.State().MaxTemp())
	}
	res.ChipPowerW = append(res.ChipPowerW, chip)
	res.BudgetW = append(res.BudgetW, l.budget)
	if chip > l.budget*(1+1e-9) {
		res.OvershootIntervals++
	}
	l.now += l.opt.DeltaSim
	// §5.1 termination: stop when the first benchmark completes.
	for c := 0; l.anyDone && c < n; c++ {
		if l.sub.Finished(c) {
			res.FirstCompleted = c
			l.done = true
		}
	}
}

// foldSamples averages the finished explore interval into the samples the
// next decision observes. A truncated interval (horizon hit or first-
// completion exit) must average over the deltas actually simulated, not the
// nominal count.
func (l *Loop) foldSamples() {
	den := float64(l.simmed)
	if den == 0 {
		den = 1
	}
	l.chipMeasured = 0
	for c := 0; c < l.n; c++ {
		l.samples[c] = core.Sample{
			PowerW: l.intervalPower[c] / den,
			Instr:  l.intervalInstr[c],
			Done:   l.coreFinished(c),
		}
		l.chipMeasured += l.samples[c].PowerW
	}
}

// StepDelta advances the loop by exactly one delta-sim interval, running the
// explore-boundary decision first when one is due. It returns true when the
// loop has reached the horizon or the first program completion; further
// calls are no-ops that keep returning true.
func (l *Loop) StepDelta() (bool, error) {
	if l.Done() {
		return true, nil
	}
	if l.d == 0 {
		if err := l.decide(); err != nil {
			return false, err
		}
	}
	l.delta()
	l.d++
	if l.d >= l.opt.DeltasPerExplore || l.Done() {
		l.foldSamples()
		l.d = 0
	}
	return l.Done(), nil
}

// Close closes the decider: the policy's solver session and, when armed,
// the guard's watchdog. Idempotent; the loop must not be stepped after.
// Finish calls it.
func (l *Loop) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.decider.Close()
}

// Finish seals the run accounting — elapsed time, final samples, overshoot
// integrals, guard statistics, solver node counts — closes the loop, and
// returns the Result. Idempotent.
func (l *Loop) Finish() *Result {
	if l.finished {
		return l.res
	}
	l.finished = true
	res := l.res
	res.Elapsed = l.now
	res.FinalSamples = append([]core.Sample(nil), l.samples...)
	res.OvershootEnergyWs = metrics.OvershootEnergyWs(res.ChipPowerW, res.BudgetW, l.deltaSC)
	res.WorstOvershootWs = metrics.WorstSustainedOvershootWs(res.ChipPowerW, res.BudgetW, l.deltaSC)
	st := l.decider.Stats()
	if st.Guarded {
		g := st.Guard
		res.EmergencyEntries = g.EmergencyEntries
		res.EmergencyIntervals = g.EmergencyIntervals
		res.RecoveryLatency = time.Duration(g.LongestEmergency) * l.explore
		res.DeadCores = g.DeadCores
		res.SanitizedSamples = g.SanitizedSamples + g.ClampedSamples
		res.RescaledIntervals = g.RescaledIntervals
	}
	if st.NodesCounted {
		res.Obs.SolverNodes = st.Nodes
	}
	if ss := st.Session; st.SessionOn {
		res.Obs.SolverMemoHits = ss.MemoHits
		res.Obs.SolverWarmSolves = ss.WarmFloored
		res.Obs.SolverHintReturns = ss.HintReturns
		res.Obs.SolverPruned = ss.Pruned
		res.Obs.DirtyCores = ss.DirtyCores
		res.Obs.DeltaSolves = ss.DeltaSolves
		res.Obs.DeltaCertified = ss.DeltaCertified
		res.Obs.DeltaFallbacks = ss.DeltaFallbacks
	}
	if l.obs != nil {
		l.obs.RunEnd(res)
	}
	l.Close()
	return res
}

// Run executes the global-manager control loop on the substrate until the
// horizon or the first program completion (§5.1).
func Run(sub Substrate, opt Options) (*Result, error) {
	l, err := New(sub, opt)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	for {
		done, err := l.StepDelta()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return l.Finish(), nil
}
