package engine

import (
	"math"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/solver"
)

// GuardTolerance is the guard's one tolerance above the budget, as a
// fraction of it. A measured chip power above budget × (1+GuardTolerance)
// counts toward the hard cap's overshoot run, and a vector whose predicted
// power lies above it fails the conformance gate: policies legitimately ride
// the boundary (§5.5).
const GuardTolerance = 0.02

// The guard's other fixed rules (DESIGN.md §6.2).
const (
	// overshootK consecutive over-budget intervals engage the hard cap.
	overshootK = 3
	// The hard cap releases once measured chip power has stayed at or below
	// recoverFrac of the budget for recoverH consecutive intervals.
	recoverFrac = 0.95
	recoverH    = 2
	// deadIntervals consecutive zero-activity intervals declare a live core
	// dead.
	deadIntervals = 3
	// ewmaAlpha smooths the per-core power EWMA; a reading more than
	// clampFactor× away from it, either way, is clamped.
	ewmaAlpha   = 0.25
	clampFactor = 4
	// maxCorePowerW is the sanity ceiling on a per-core power reading.
	maxCorePowerW = 500
	// When the summed per-core powers and the chip-level sensor disagree by
	// more than rescaleMismatchFrac of the latter, the per-core powers are
	// rescaled to the chip total.
	rescaleMismatchFrac = 0.10
)

// SupervisorConfig arms the guard's decision supervisor, which (a) bounds
// how long the policy may take to decide and (b) makes every actuated mode
// vector conform to the budget under the §5.5 predictions.
//
// Degradation ladder, tried top to bottom each interval until a rung yields
// a conformant vector:
//
//	rung 0  the policy under the deadline (or the hard-cap throttle in its
//	        place);
//	rung 1  the shared greedy kernel on the decision's matrices;
//	rung 2  the last-known-good vector, refitted to the current budget by
//	        greedy demotion;
//	rung 3  the uniform deepest-mode floor.
//
// Every rung's vector passes the budget-conformance gate (predicted power
// ≤ budget × (1+GuardTolerance)), with greedy repair by demotion when it
// fails, covering fault-corrupted budgets and stale telemetry. The gate
// reads the matrices the policy decided on; when the policy did not run or
// did not answer, the guard predicts them from the sanitized samples with
// the run's analytic predictor.
type SupervisorConfig struct {
	// Deadline, when positive, is the wall-clock budget per decision: the
	// policy runs on a watchdog goroutine and is abandoned mid-solve
	// (falling to rung 1) when the deadline passes. Wall-clock deadlines are
	// inherently nondeterministic; bound the solver by nodes
	// (solver.WithDeadline) and leave Deadline zero when bit-identical
	// reruns matter.
	Deadline time.Duration
	// NodeBudget records the deterministic per-decision solver node budget
	// of a supervised run. Nothing reads it to bound a solve, the guard
	// included: callers arm their own solver with solver.WithDeadline (as
	// the benchmark's supervised BB does) and may note the budget here.
	NodeBudget int64
}

// Validate reports configuration errors as *OptionError naming component.
func (c SupervisorConfig) Validate(component string) error {
	switch {
	case c.Deadline < 0:
		return &OptionError{Component: component, Field: "Supervisor.Deadline", Value: c.Deadline, Reason: "must be non-negative"}
	case c.NodeBudget < 0:
		return &OptionError{Component: component, Field: "Supervisor.NodeBudget", Value: c.NodeBudget, Reason: "must be non-negative"}
	}
	return nil
}

// guard is the engine's one guard stage around *core.Manager, so that one
// module owns what a guarded decision trusts. Each decision it:
//
//   - sanitizes the samples once, on the loop goroutine: NaN/range
//     rejection with last-known-good fallback, EWMA outlier clamping,
//     cross-checking the per-core sensors against the independent
//     chip-level measurement, and dead-core detection (a core reporting no
//     activity for deadIntervals intervals is marked Done, so the manager
//     parks it in the deepest mode and the policy redistributes its share);
//   - when the hard cap is armed, forces the deepest vector in place of the
//     policy after overshootK consecutive over-budget intervals, until
//     measured chip power recovers (hysteresis);
//   - when the supervisor is armed, runs the policy behind the watchdog and
//     walks the SupervisorConfig ladder on the matrices the policy decided
//     on.
//
// NewDecider builds it whenever a guard or a supervisor is armed. It is used
// from the engine loop goroutine only; with a deadline, a single persistent
// worker goroutine runs the manager so an abandoned decision can keep
// draining off-loop.
type guard struct {
	mgr *core.Manager
	// pred is the run's analytic predictor: the guard predicts with it only
	// when the policy did not run or did not answer, and it is race-free
	// beside an abandoned solve.
	pred    core.Predictor
	plan    modes.Plan
	hardCap bool // a GuardConfig armed the hard-cap throttle
	sup     bool // a SupervisorConfig armed the ladder
	inj     *fault.Injector
	// deepest is the one floor: the hard cap's vector and rung 3.
	deepest modes.Vector

	// Sanitizer state, per core. clean is the buffer the samples are
	// repaired into, reused every decision.
	lastGood []core.Sample
	ewma     []float64
	hasEWMA  []bool
	zeroRun  []int
	dead     []bool
	clean    []core.Sample

	// Hard-cap state machine.
	overRun      int
	emergency    bool
	recoverRun   int
	emergencyLen int

	stats core.GuardStats

	// Supervisor state. mx is the guard's own prediction, filled only when
	// the policy did not answer; good is the most recent gate-passing
	// actuation; out is the buffer rungs 1–3 and the rung-0 repair build
	// their vector in. Decide returns the manager's vector, deepest or out,
	// each valid until the next decision.
	mx       core.Matrices
	good     modes.Vector
	haveGood bool
	out      modes.Vector

	// Watchdog machinery, unused when deadline is zero. The channels are
	// buffered so neither side ever blocks the other permanently: the
	// worker parks a late result in resC and moves on.
	deadline    time.Duration
	reqC        chan core.Decision
	resC        chan decided
	clock       clock
	workCurrent modes.Vector // worker-owned copies; written only while idle
	workSamples []core.Sample
	busy        bool // an abandoned decision is still running

	// The policy's solver session is single-goroutine state that the worker
	// uses during decisions, so engine-requested invalidations arriving
	// while an abandoned decision still owns it are deferred (pendingInval)
	// and applied at the next point the worker is provably idle.
	pendingInval bool
}

// decided is one manager decision as the watchdog worker hands it back: the
// vector and the policy's candidate.
type decided struct{ v, candidate modes.Vector }

// newGuard wraps mgr for n cores: the hard cap when hardCap is set, the
// supervisor when sup is non-nil. pred is the analytic predictor the guard
// falls back on; inj, when non-nil, supplies the injected decision hangs.
func newGuard(mgr *core.Manager, pred core.Predictor, plan modes.Plan, n int, hardCap bool, sup *SupervisorConfig, inj *fault.Injector) *guard {
	g := &guard{
		mgr:      mgr,
		pred:     pred,
		plan:     plan,
		hardCap:  hardCap,
		sup:      sup != nil,
		inj:      inj,
		deepest:  modes.Uniform(n, modes.Mode(plan.NumModes()-1)),
		lastGood: make([]core.Sample, n),
		ewma:     make([]float64, n),
		hasEWMA:  make([]bool, n),
		zeroRun:  make([]int, n),
		dead:     make([]bool, n),
	}
	if sup == nil {
		return g
	}
	g.good = make(modes.Vector, n)
	g.out = make(modes.Vector, n)
	if sup.Deadline > 0 {
		g.deadline = sup.Deadline
		g.reqC = make(chan core.Decision, 1)
		g.resC = make(chan decided, 1)
		g.workCurrent = make(modes.Vector, n)
		g.workSamples = make([]core.Sample, n)
		g.clock = newWallClock()
		go g.worker()
	}
	return g
}

// Decide implements Decider: one guarded decision. d.ChipPowerW is the
// chip-level measurement of the previous interval (the VRM-side sensor,
// independent of the per-core sensors); d.Samples are the possibly
// corrupted per-core observations.
func (g *guard) Decide(d core.Decision) (modes.Vector, core.Report) {
	g.clean = g.sanitize(g.clean, d.Samples)

	// Fall back to the per-core sum if the chip sensor itself reads junk.
	chipPowerW := d.ChipPowerW
	if math.IsNaN(chipPowerW) || math.IsInf(chipPowerW, 0) || chipPowerW < 0 {
		chipPowerW = 0
		for _, s := range g.clean {
			chipPowerW += s.PowerW
		}
	}
	g.crossCheck(g.clean, chipPowerW)
	d.Samples = g.clean

	emergency := g.hardCap && g.updateGuard(d.BudgetW, chipPowerW)
	if g.sup {
		return g.supervise(d, emergency)
	}
	if emergency {
		// The policy does not run.
		return g.deepest, core.Report{Emergency: true}
	}
	return g.mgr.Decide(d)
}

// supervise is one trip down the degradation ladder. Rung 0 is the policy,
// or the hard-cap throttle in its place. The report carries the policy's
// candidate when the policy answered.
func (g *guard) supervise(d core.Decision, emergency bool) (modes.Vector, core.Report) {
	rep := core.Report{Supervised: true, Emergency: emergency}
	v, answered := g.deepest, emergency
	if !emergency {
		v, answered = g.tryPolicy(d, &rep)
	}
	// One set of §5.5 matrices per decision: those the policy decided on,
	// or, when it did not run or did not answer, the guard's own prediction
	// from the sanitized samples.
	mx := &g.mx
	if answered && !emergency {
		mx = g.mgr.Matrices()
	} else {
		g.pred.MatricesInto(mx, d.Current, d.Samples)
	}
	budget := d.BudgetW

	if answered {
		if p := predPower(mx, v); conforms(p, budget) {
			return g.actuate(v, 0, p, true, rep)
		}
		rep.Rejected = true
		// v belongs to the manager (or is the floor): repair a copy.
		rv := g.outFrom(v)
		if p, ok := g.repair(mx, rv, budget); ok {
			rep.Repaired = true
			return g.actuate(rv, 0, p, true, rep)
		}
	}

	// Rung 1: the shared greedy kernel on the decision's matrices,
	// conformant by construction whenever the budget admits anything.
	gin := solver.Instance{Plan: g.plan, BudgetW: budget, Power: mx.Power, Instr: mx.Instr}
	g.out = solver.GreedyInto(g.out, gin)
	if p := predPower(mx, g.out); conforms(p, budget) {
		return g.actuate(g.out, 1, p, true, rep)
	}

	// Rung 2: the last-known-good vector, refitted to the current budget by
	// greedy demotion (the "rescale" for budgets that moved under us).
	if g.haveGood {
		lk := g.outFrom(g.good)
		if p, ok := g.repair(mx, lk, budget); ok {
			return g.actuate(lk, 2, p, true, rep)
		}
	}

	// Rung 3: the deepest floor, the least power the chip can draw,
	// conformant or not.
	dv := g.outFrom(g.deepest)
	p := predPower(mx, dv)
	return g.actuate(dv, 3, p, conforms(p, budget), rep)
}

// tryPolicy runs the manager, synchronously (deterministic;
// wall-boundedness comes from the solver-side cooperative deadline) or
// under the watchdog. ok reports whether a rung-0 vector is available: with
// one, rep carries the policy's candidate; without one, rep records why.
func (g *guard) tryPolicy(d core.Decision, rep *core.Report) (v modes.Vector, ok bool) {
	if g.reqC == nil {
		var prep core.Report
		v, prep = g.mgr.Decide(d)
		rep.Candidate = prep.Candidate
		return v, true
	}
	if g.busy {
		select {
		case <-g.resC:
			// A previously abandoned decision finally finished. Its vector
			// answers a stale interval: discard it.
			g.busy = false
			g.applyPendingInval()
		default:
			rep.Wedged = true
			return nil, false
		}
	}
	// The loop reuses its vector, and the guard its sanitized samples,
	// every interval; the worker may outlive this one, so hand it
	// worker-owned copies. The abandoned path may also race the substrate,
	// so the async manager never sees the lookahead oracle. The vector,
	// candidate and matrices the worker leaves behind are the manager's own,
	// read here only after the receive; the worker writes them again only
	// for the next request.
	copy(g.workCurrent, d.Current)
	d.Current = g.workCurrent
	copy(g.workSamples, d.Samples)
	d.Samples = g.workSamples
	d.Lookahead = nil
	tick := g.clock.arm(g.deadline)
	g.reqC <- d
	select {
	case r := <-g.resC:
		g.clock.disarm()
		rep.Candidate = r.candidate
		return r.v, true
	case <-tick:
		g.busy = true
		rep.TimedOut = true
		return nil, false
	}
}

// worker runs abandonable decisions off the engine loop. The injected
// decision hang (fault.SolverStall) models the wedged solver itself, so it
// sleeps here, on the worker, where the watchdog can abandon it.
func (g *guard) worker() {
	for d := range g.reqC {
		if g.inj != nil {
			if hang := g.inj.DecisionHang(d.Now); hang > 0 {
				g.clock.sleep(hang)
			}
		}
		v, rep := g.mgr.Decide(d)
		g.resC <- decided{v, rep.Candidate}
	}
}

// clock is the watchdog's time source: the deadline armed per decision and
// the injected hang the worker sleeps. Outside tests it is the wall clock;
// the stall acceptance test substitutes one whose time moves only by the
// injected hang, so whether a decision times out follows from the fault
// scenario and not from how a busy host schedules the worker.
type clock interface {
	// arm starts the deadline; the channel receives once d has passed.
	arm(d time.Duration) <-chan time.Time
	// disarm stops the armed deadline, dropping its tick if it fired.
	disarm()
	// sleep hangs the calling worker for d.
	sleep(d time.Duration)
}

// wallClock is the wall clock, with one timer reused across decisions.
type wallClock struct{ t *time.Timer }

func newWallClock() *wallClock {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return &wallClock{t}
}

func (w *wallClock) arm(d time.Duration) <-chan time.Time {
	w.t.Reset(d)
	return w.t.C
}

func (w *wallClock) disarm() {
	if !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
}

func (*wallClock) sleep(d time.Duration) { time.Sleep(d) }

// sanitize repairs the per-core observations into out (grown when shorter
// than samples) and advances the dead-core detector. It never mutates its
// input.
func (g *guard) sanitize(out, samples []core.Sample) []core.Sample {
	if cap(out) < len(samples) {
		out = make([]core.Sample, len(samples))
	}
	out = out[:len(samples)]
	copy(out, samples)
	for c := range out {
		if c >= len(g.lastGood) {
			break
		}
		if out[c].Done || g.dead[c] {
			out[c].Done = true
			continue
		}
		s := out[c]
		invalid := math.IsNaN(s.PowerW) || math.IsInf(s.PowerW, 0) || s.PowerW < 0 ||
			s.PowerW > maxCorePowerW ||
			math.IsNaN(s.Instr) || math.IsInf(s.Instr, 0) || s.Instr < 0

		// Dead-core detection: a live core whose sensors report no power
		// and no committed instructions for deadIntervals in a row has
		// failed (a single all-zero interval is treated as a dropout and
		// repaired below).
		zero := !invalid && s.PowerW == 0 && s.Instr == 0
		if zero {
			g.zeroRun[c]++
			if g.zeroRun[c] >= deadIntervals {
				g.dead[c] = true
				g.stats.DeadCores = append(g.stats.DeadCores, c)
				out[c].Done = true
				continue
			}
			invalid = true // transient dropout until proven dead
		} else if !invalid {
			g.zeroRun[c] = 0
		}

		if invalid {
			g.stats.SanitizedSamples++
			out[c] = g.lastGood[c]
			continue
		}

		// EWMA outlier clamp: a single reading may not stray more than
		// clampFactor× from the smoothed history in either direction.
		if g.hasEWMA[c] && g.ewma[c] > 0 {
			hi := g.ewma[c] * clampFactor
			lo := g.ewma[c] / clampFactor
			if out[c].PowerW > hi {
				out[c].PowerW = hi
				g.stats.ClampedSamples++
			} else if out[c].PowerW < lo {
				out[c].PowerW = lo
				g.stats.ClampedSamples++
			}
		}
		if g.hasEWMA[c] {
			g.ewma[c] += ewmaAlpha * (out[c].PowerW - g.ewma[c])
		} else {
			g.ewma[c] = out[c].PowerW
			g.hasEWMA[c] = true
		}
		g.lastGood[c] = out[c]
	}
	return out
}

// crossCheck reconciles the sanitized per-core powers with the independent
// chip-level measurement: a disagreement beyond rescaleMismatchFrac means
// some per-core sensor is lying (e.g. stuck-at-low), so the readings are
// scaled uniformly to sum to the trusted chip total.
func (g *guard) crossCheck(clean []core.Sample, chipPowerW float64) {
	if chipPowerW <= 0 {
		return
	}
	var sum float64
	for c := range clean {
		if !clean[c].Done {
			sum += clean[c].PowerW
		}
	}
	if sum <= 0 || math.Abs(sum-chipPowerW) <= rescaleMismatchFrac*chipPowerW {
		return
	}
	scale := chipPowerW / sum
	for c := range clean {
		if !clean[c].Done {
			clean[c].PowerW *= scale
		}
	}
	g.stats.RescaledIntervals++
}

// updateGuard advances the hard-cap state machine with the latest measured
// chip power and reports whether the emergency throttle is engaged for the
// coming interval.
func (g *guard) updateGuard(budgetW, chipPowerW float64) bool {
	if !g.emergency {
		if chipPowerW > budgetW*(1+GuardTolerance) {
			g.overRun++
		} else {
			g.overRun = 0
		}
		if g.overRun >= overshootK {
			g.emergency = true
			g.stats.EmergencyEntries++
			g.recoverRun = 0
			g.emergencyLen = 0
		}
	}
	if g.emergency {
		g.stats.EmergencyIntervals++
		g.emergencyLen++
		if chipPowerW <= budgetW*recoverFrac {
			g.recoverRun++
		} else {
			g.recoverRun = 0
		}
		if g.recoverRun >= recoverH {
			g.emergency = false
			g.overRun = 0
			if g.emergencyLen > g.stats.LongestEmergency {
				g.stats.LongestEmergency = g.emergencyLen
			}
			return false // resume normal policy this interval
		}
		return true
	}
	return false
}

// outFrom copies v into the guard's output buffer and returns it.
func (g *guard) outFrom(v modes.Vector) modes.Vector {
	g.out = append(g.out[:0], v...)
	return g.out
}

// predPower scores v with the canonical core-order sum over mx.
func predPower(mx *core.Matrices, v modes.Vector) float64 {
	var p float64
	for c, m := range v {
		p += mx.Power[c][m]
	}
	return p
}

// conforms is the budget-conformance gate: predicted power within
// budget × (1+GuardTolerance), with the same relative epsilon the solvers
// use.
func conforms(pred, budget float64) bool {
	return pred <= budget*(1+GuardTolerance)+1e-9*(1+math.Abs(budget))
}

// repair demotes v in place, one mode step at a time, always the demotion
// losing the least predicted throughput per watt saved (ties to the lowest
// core), until it conforms. It reports the final predicted power and
// whether repair succeeded; on failure v is left at the demotion frontier
// (no further power-saving step exists).
func (g *guard) repair(mx *core.Matrices, v modes.Vector, budget float64) (float64, bool) {
	nm := g.plan.NumModes()
	n := len(v)
	pred := predPower(mx, v)
	for iter := 0; iter < n*(nm-1); iter++ {
		if conforms(pred, budget) {
			return pred, true
		}
		bestC := -1
		var bestRatio float64
		for c := 0; c < n; c++ {
			m := v[c]
			if int(m) >= nm-1 {
				continue
			}
			dP := mx.Power[c][m] - mx.Power[c][m+1] // watts saved
			if !(dP > 0) {                          // rejects NaN rows too
				continue
			}
			ratio := (mx.Instr[c][m] - mx.Instr[c][m+1]) / dP // throughput lost per watt
			if math.IsNaN(ratio) {
				continue
			}
			if bestC < 0 || ratio < bestRatio {
				bestC, bestRatio = c, ratio
			}
		}
		if bestC < 0 {
			return pred, false
		}
		v[bestC]++
		pred = predPower(mx, v) // canonical re-sum: no incremental drift
	}
	return pred, conforms(pred, budget)
}

// actuate records the ladder outcome in rep; a gate-passing v becomes the
// last-known-good vector.
func (g *guard) actuate(v modes.Vector, rung int, pred float64, good bool, rep core.Report) (modes.Vector, core.Report) {
	if good {
		copy(g.good, v)
		g.haveGood = true
	}
	rep.Rung = rung
	rep.PredPowerW = pred
	return v, rep
}

// InvalidateSession implements Decider under the ownership rule: idle, it
// forwards to the manager immediately; with an abandoned decision still
// running the manager (and with it the policy's single-goroutine solver
// session), the invalidation is deferred and applied at the next point the
// worker is provably idle (the next dispatch, or drain). Either way it
// lands before the session's next use.
func (g *guard) InvalidateSession() {
	if g.busy {
		g.pendingInval = true
		return
	}
	g.mgr.InvalidateSession()
}

// applyPendingInval flushes a deferred session invalidation. Callers must
// have just established that the worker is idle (busy == false after a resC
// receive, which also orders the worker's session writes before ours).
func (g *guard) applyPendingInval() {
	if g.pendingInval && !g.busy {
		g.pendingInval = false
		g.mgr.InvalidateSession()
	}
}

// Stats implements Decider: the guard's intervention counters beside the
// manager's policy counters, read after draining any abandoned decision so
// the manager is quiescent.
func (g *guard) Stats() core.RunStats {
	g.drain()
	st := g.mgr.Stats()
	st.Guard = g.stats
	st.Guard.DeadCores = append([]int(nil), g.stats.DeadCores...)
	if g.emergency && g.emergencyLen > st.Guard.LongestEmergency {
		st.Guard.LongestEmergency = g.emergencyLen
	}
	st.Guarded = true
	return st
}

// drain blocks until an abandoned decision finishes and discards its stale
// result. The wait is bounded by the manager's own runtime (plus any
// injected hang).
func (g *guard) drain() {
	if g.busy {
		<-g.resC
		g.busy = false
		g.applyPendingInval()
	}
}

// Close implements Decider: it drains and stops the watchdog worker, then
// closes the manager. Idempotent.
func (g *guard) Close() {
	if g.reqC != nil {
		g.drain()
		close(g.reqC)
		g.reqC = nil
	}
	g.mgr.Close()
}
