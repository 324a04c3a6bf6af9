package engine

import (
	"math"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/solver"
)

// SupervisorConfig arms the engine's decision supervisor: a safety state
// machine wrapped around the configured decider that (a) bounds how long a
// decision may take and (b) guarantees every actuated mode vector conforms
// to the budget under the supervisor's own power predictions.
//
// Degradation ladder, tried top to bottom each interval until a rung yields
// a conformant vector:
//
//	rung 0  the configured decider (policy/solver), under the deadline;
//	rung 1  the shared greedy kernel on the supervisor's own matrices;
//	rung 2  the last-known-good vector, refitted to the current budget by
//	        greedy demotion;
//	rung 3  the uniform deepest-mode emergency throttle.
//
// Every rung's vector passes the budget-conformance gate — predicted power
// ≤ budget × (1+ToleranceFrac) — with greedy repair by demotion when it
// fails, covering fault-corrupted budgets and stale telemetry. The
// supervisor predicts power from its own finite-filtered copy of the
// observations, so NaN-poisoned telemetry degrades the decision instead of
// disabling the gate.
type SupervisorConfig struct {
	// Deadline, when positive, is the wall-clock budget per decision: the
	// configured decider runs on a watchdog goroutine and is abandoned
	// mid-solve (falling to rung 1) when the deadline passes. Wall-clock
	// deadlines are inherently nondeterministic; bound the solver by nodes
	// (solver.WithDeadline) and leave Deadline zero when bit-identical
	// reruns matter.
	Deadline time.Duration
	// NodeBudget records the deterministic per-decision solver node budget
	// of a supervised run. Nothing reads it to bound a solve, the supervisor
	// included: callers arm their own solver with solver.WithDeadline (as
	// the benchmark's supervised BB does) and may note the budget here.
	NodeBudget int64
	// ToleranceFrac is the conformance-gate tolerance (default 0.02,
	// matching the guard's default OvershootFrac).
	ToleranceFrac float64
	// Predictor builds the supervisor's own §5.5 matrices from its
	// finite-filtered last-good samples. Front ends fill it with the same
	// predictor the decider uses; required.
	Predictor core.Predictor
}

// Validate reports configuration errors as *OptionError.
func (c SupervisorConfig) Validate() error {
	switch {
	case c.Deadline < 0:
		return &OptionError{Component: "engine", Field: "Supervisor.Deadline", Value: c.Deadline, Reason: "must be non-negative"}
	case c.NodeBudget < 0:
		return &OptionError{Component: "engine", Field: "Supervisor.NodeBudget", Value: c.NodeBudget, Reason: "must be non-negative"}
	case math.IsNaN(c.ToleranceFrac) || math.IsInf(c.ToleranceFrac, 0) || c.ToleranceFrac < 0:
		return &OptionError{Component: "engine", Field: "Supervisor.ToleranceFrac", Value: c.ToleranceFrac, Reason: "must be a finite non-negative fraction"}
	case c.Predictor.Plan.NumModes() == 0:
		return &OptionError{Component: "engine", Field: "Supervisor.Predictor", Value: nil, Reason: "required (front ends fill it with the decider's predictor)"}
	}
	return nil
}

func (c SupervisorConfig) tolerance() float64 {
	if c.ToleranceFrac == 0 {
		return 0.02
	}
	return c.ToleranceFrac
}

// Supervision is the supervisor's account of one decision, read by the
// loop from its supervisor per interval for counters and DecisionTrace
// fields.
type Supervision struct {
	// Rung is the degradation-ladder rung that produced the actuated vector.
	Rung int
	// Rejected reports the conformance gate rejected the rung-0 vector;
	// Repaired reports the actuated vector came from greedy demotion repair.
	Rejected bool
	Repaired bool
	// PredPowerW is the supervisor-predicted chip power of the actuated
	// vector (what the gate compared against the budget).
	PredPowerW float64
	// TimedOut reports the watchdog abandoned the configured decider
	// mid-solve; Wedged reports the decider was skipped entirely because a
	// previously abandoned solve was still running.
	TimedOut bool
	Wedged   bool
}

// supervisor implements Decider by wrapping the configured decider with the
// degradation ladder and conformance gate of SupervisorConfig. It is
// constructed by New (never by callers) and used from the engine loop
// goroutine only; in watchdog mode a single persistent worker goroutine runs
// the inner decider so an abandoned decision can keep draining off-loop.
type supervisor struct {
	cfg     SupervisorConfig
	tol     float64
	inner   Decider
	inj     *fault.Injector
	plan    modes.Plan
	n       int
	deepest modes.Vector

	obs      []core.Sample // finite-filtered last-good observations
	mx       core.Matrices // supervisor-owned §5.5 matrices, rebuilt per decision
	lastGood modes.Vector  // most recent gate-passing actuation
	haveGood bool
	// out is the buffer rungs 1–3 and the rung-0 repair build their vector
	// in: Decide returns either the inner decider's vector or out, both
	// valid until the next decision.
	out modes.Vector

	last Supervision

	// Watchdog machinery, nil/unused when cfg.Deadline == 0. The channels
	// are buffered so neither side ever blocks the other permanently: the
	// worker parks a late result in resC and moves on.
	reqC        chan core.Decision
	resC        chan decided
	timer       *time.Timer
	workCurrent modes.Vector // worker-owned copies; written only while idle
	workSamples []core.Sample
	busy        bool // an abandoned decision is still running

	// The inner decider's solver session is single-goroutine state that the
	// worker uses during decisions, so engine-requested invalidations
	// arriving while an abandoned decision still owns it are deferred
	// (pendingInval) and applied at the next point the worker is provably
	// idle.
	pendingInval bool
}

// decided is one inner decision as the watchdog worker hands it back.
type decided struct {
	v   modes.Vector
	rep core.Report
}

func newSupervisor(cfg SupervisorConfig, inner Decider, inj *fault.Injector, n int) *supervisor {
	s := &supervisor{
		cfg:      cfg,
		tol:      cfg.tolerance(),
		inner:    inner,
		inj:      inj,
		plan:     cfg.Predictor.Plan,
		n:        n,
		obs:      make([]core.Sample, n),
		lastGood: make(modes.Vector, n),
		out:      make(modes.Vector, n),
	}
	s.deepest = modes.Uniform(n, modes.Mode(s.plan.NumModes()-1))
	if cfg.Deadline > 0 {
		s.reqC = make(chan core.Decision, 1)
		s.resC = make(chan decided, 1)
		s.workCurrent = make(modes.Vector, n)
		s.workSamples = make([]core.Sample, n)
		s.timer = time.NewTimer(time.Hour)
		if !s.timer.Stop() {
			<-s.timer.C
		}
		go s.worker()
	}
	return s
}

// worker runs abandoned-able decisions off the engine loop. The injected
// decision hang (fault.SolverStall) models the wedged solver itself, so it
// sleeps here — on the worker, where the watchdog can abandon it.
func (s *supervisor) worker() {
	for d := range s.reqC {
		if s.inj != nil {
			if hang := s.inj.DecisionHang(d.Now); hang > 0 {
				time.Sleep(hang)
			}
		}
		v, rep := s.inner.Decide(d)
		s.resC <- decided{v, rep}
	}
}

// Decide implements Decider: one trip down the degradation ladder. The
// report is the inner decider's when rung 0 answered this interval, zero
// when it timed out or was skipped as wedged.
func (s *supervisor) Decide(d core.Decision) (modes.Vector, core.Report) {
	s.last = Supervision{}
	s.observe(d.Samples)
	s.cfg.Predictor.MatricesInto(&s.mx, d.Current, s.obs)
	budget := d.BudgetW

	// Rung 0: the configured decider, under the deadline.
	v, rep, ok := s.tryDecider(d)
	if ok {
		pred := s.predPower(v)
		if s.conforms(pred, budget) {
			return s.actuate(v, 0, pred, true), rep
		}
		s.last.Rejected = true
		// v belongs to the inner decider: repair a copy.
		rv := s.outFrom(v)
		if p, ok := s.repair(rv, budget); ok {
			s.last.Repaired = true
			return s.actuate(rv, 0, p, true), rep
		}
	}

	// Rung 1: the shared greedy kernel on the supervisor's own matrices —
	// conformant by construction whenever the budget admits anything.
	gin := solver.Instance{Plan: s.plan, BudgetW: budget, Power: s.mx.Power, Instr: s.mx.Instr}
	s.out = solver.GreedyInto(s.out, gin)
	gv := s.out
	if pred := s.predPower(gv); s.conforms(pred, budget) {
		return s.actuate(gv, 1, pred, true), rep
	}

	// Rung 2: the last-known-good vector, refitted to the current budget by
	// greedy demotion (the "rescale" for budgets that moved under us).
	if s.haveGood {
		lk := s.outFrom(s.lastGood)
		if p, ok := s.repair(lk, budget); ok {
			return s.actuate(lk, 2, p, true), rep
		}
	}

	// Rung 3: uniform deepest-mode emergency throttle — the floor vector is
	// the least power the chip can draw, conformant or not.
	dv := s.outFrom(s.deepest)
	pred := s.predPower(dv)
	return s.actuate(dv, 3, pred, s.conforms(pred, budget)), rep
}

// outFrom copies v into the supervisor's output buffer and returns it.
func (s *supervisor) outFrom(v modes.Vector) modes.Vector {
	s.out = append(s.out[:0], v...)
	return s.out
}

// tryDecider runs the configured decider, synchronously (deterministic;
// wall-boundedness comes from the solver-side cooperative deadline) or under
// the watchdog. ok reports whether a rung-0 vector is available; without
// one the report is zero.
func (s *supervisor) tryDecider(d core.Decision) (v modes.Vector, rep core.Report, ok bool) {
	if s.reqC == nil {
		v, rep = s.inner.Decide(d)
		return v, rep, true
	}
	if s.busy {
		select {
		case <-s.resC:
			// A previously abandoned decision finally finished. Its vector
			// answers a stale interval — discard it.
			s.busy = false
			s.applyPendingInval()
		default:
			s.last.Wedged = true
			return nil, core.Report{}, false
		}
	}
	// The engine reuses its vector and sample buffers every interval; the
	// worker may outlive this one, so hand it supervisor-owned copies. The
	// abandoned path may also race the substrate, so the async decider
	// never sees the lookahead oracle. The vector and report the worker
	// sends back are the inner decider's own, read here only after the
	// receive; the worker writes them again only for the next request.
	copy(s.workCurrent, d.Current)
	d.Current = s.workCurrent
	copy(s.workSamples, d.Samples)
	d.Samples = s.workSamples
	d.Lookahead = nil
	s.reqC <- d
	s.timer.Reset(s.cfg.Deadline)
	select {
	case r := <-s.resC:
		if !s.timer.Stop() {
			select {
			case <-s.timer.C:
			default:
			}
		}
		return r.v, r.rep, true
	case <-s.timer.C:
		s.busy = true
		s.last.TimedOut = true
		return nil, core.Report{}, false
	}
}

// observe folds the interval's samples into the supervisor's trusted view:
// finite, non-negative readings replace the stored ones; garbage (NaN/Inf/
// negative) leaves the last good value in place, so the gate keeps working
// on plausible magnitudes while the telemetry lies.
func (s *supervisor) observe(samples []core.Sample) {
	for c := range samples {
		sm := samples[c]
		s.obs[c].Done = sm.Done
		if finite(sm.PowerW) && sm.PowerW >= 0 && finite(sm.Instr) && sm.Instr >= 0 {
			s.obs[c].PowerW = sm.PowerW
			s.obs[c].Instr = sm.Instr
		}
	}
}

// predPower scores v with the canonical core-order sum over the
// supervisor's matrices.
func (s *supervisor) predPower(v modes.Vector) float64 {
	var p float64
	for c, m := range v {
		p += s.mx.Power[c][m]
	}
	return p
}

// conforms is the budget-conformance gate: predicted power within
// budget × (1+tol), with the same relative epsilon the solvers use.
func (s *supervisor) conforms(pred, budget float64) bool {
	return pred <= budget*(1+s.tol)+1e-9*(1+math.Abs(budget))
}

// repair demotes v in place — one mode step at a time, always the demotion
// losing the least predicted throughput per watt saved (ties to the lowest
// core) — until it conforms. It reports the final predicted power and
// whether repair succeeded; on failure v is left at the demotion frontier
// (no further power-saving step exists).
func (s *supervisor) repair(v modes.Vector, budget float64) (float64, bool) {
	nm := s.plan.NumModes()
	pred := s.predPower(v)
	for iter := 0; iter < s.n*(nm-1); iter++ {
		if s.conforms(pred, budget) {
			return pred, true
		}
		bestC := -1
		var bestRatio float64
		for c := 0; c < s.n; c++ {
			m := v[c]
			if int(m) >= nm-1 {
				continue
			}
			dP := s.mx.Power[c][m] - s.mx.Power[c][m+1] // watts saved
			if !(dP > 0) {                              // rejects NaN rows too
				continue
			}
			ratio := (s.mx.Instr[c][m] - s.mx.Instr[c][m+1]) / dP // throughput lost per watt
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
		pred = s.predPower(v) // canonical re-sum: no incremental drift
	}
	return pred, s.conforms(pred, budget)
}

// actuate records the ladder outcome; a gate-passing v becomes the
// last-known-good vector.
func (s *supervisor) actuate(v modes.Vector, rung int, pred float64, good bool) modes.Vector {
	if good {
		copy(s.lastGood, v)
		s.haveGood = true
	}
	s.last.Rung = rung
	s.last.PredPowerW = pred
	return v
}

// InvalidateSession implements Decider under the ownership rule: idle, it
// forwards to the inner decider immediately; with an abandoned decision
// still running the inner decider — and with it the policy's
// single-goroutine solver session — the invalidation is deferred and
// applied at the next point the worker is provably idle (the next dispatch,
// or drain). Either way it lands before the session's next use.
func (s *supervisor) InvalidateSession() {
	if s.busy {
		s.pendingInval = true
		return
	}
	s.inner.InvalidateSession()
}

// applyPendingInval flushes a deferred session invalidation. Callers must
// have just established that the worker is idle (busy == false after a resC
// receive, which also orders the worker's session writes before ours).
func (s *supervisor) applyPendingInval() {
	if s.pendingInval && !s.busy {
		s.pendingInval = false
		s.inner.InvalidateSession()
	}
}

// Stats implements Decider, draining any abandoned decision first so the
// inner decider is quiescent when read.
func (s *supervisor) Stats() core.RunStats {
	s.drain()
	return s.inner.Stats()
}

// drain blocks until an abandoned decision finishes and discards its stale
// result. The wait is bounded by the inner decider's own runtime (plus any
// injected hang).
func (s *supervisor) drain() {
	if s.busy {
		<-s.resC
		s.busy = false
		s.applyPendingInval()
	}
}

// Close implements Decider: it drains and stops the watchdog worker, then
// closes the inner decider. Idempotent.
func (s *supervisor) Close() {
	if s.reqC != nil {
		s.drain()
		close(s.reqC)
		s.reqC = nil
	}
	s.inner.Close()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
