package core

import (
	"time"

	"gpm/internal/modes"
	"gpm/internal/solver"
)

// Decision is the uniform input of one explore-boundary step of a global
// manager: everything the sense→predict→decide pipeline hands the manager,
// whether guarded or not. It exists so callers (internal/engine) drive the
// Manager and the engine's guard around it through one interface instead of
// forking on the manager's concrete type.
type Decision struct {
	// BudgetW is the chip power budget for the coming interval, after every
	// upstream middleware stage (budget source, fault spikes, thermal clamp)
	// has been applied.
	BudgetW float64
	// ChipPowerW is the independent chip-level (VRM) power measurement for
	// the previous interval. Only the engine's guard consults it, for
	// cross-checking the per-core sensors and for its hard cap.
	ChipPowerW float64
	// Current is the mode vector in force during the sampled interval: the
	// vector the §5.5 predictions normalize the samples against. The caller
	// owns it and keeps it between decisions; no manager keeps a copy.
	Current modes.Vector
	// Samples are the per-core observations as reported by the (possibly
	// faulty) sensors.
	Samples []Sample
	// Lookahead, when non-nil, is the oracle probe (§5.6).
	Lookahead func(c int, m modes.Mode) (powerW, instr float64)
	// MemBound ranks cores by memory-boundedness (§5.2.2); may be nil.
	MemBound []float64
	// Now is the simulated time at the explore boundary. The manager ignores
	// it; the engine's guard uses it to align injected decision stalls
	// (fault.SolverStall) with the simulated clock.
	Now time.Duration
	// Warm reports that the engine considers Current, the previously
	// actuated vector, a valid warm-start seed; forwarded to the policy via
	// Context.Warm.
	Warm bool
}

// Report is a decider's account of one decision, returned beside the vector.
// Rung, PredPowerW, Rejected, Repaired, TimedOut and Wedged are the
// supervisor's, meaningful only when Supervised is set.
type Report struct {
	// Candidate is the policy's raw vector before sanitization, nil when the
	// policy did not run or did not answer. It is owned by the decider and
	// valid until its next decision.
	Candidate modes.Vector
	// Rung is the degradation-ladder rung that produced the vector: 0 the
	// policy (or the hard-cap throttle in its place), 1 the greedy kernel, 2
	// the last-known-good vector refitted to the budget, 3 the deepest
	// floor.
	Rung int
	// PredPowerW is the predicted chip power of the returned vector, the
	// value the conformance gate compared against the budget.
	PredPowerW float64
	// Emergency reports that the guard's hard-cap throttle made this
	// decision in place of the policy.
	Emergency bool
	// Supervised reports that the guard's supervisor judged this decision.
	Supervised bool
	// Rejected reports that the conformance gate rejected the rung-0
	// vector; Repaired that greedy demotion repaired it in place.
	Rejected bool
	Repaired bool
	// TimedOut reports that the watchdog abandoned the policy mid-solve;
	// Wedged that the policy was skipped because an abandoned solve was
	// still running.
	TimedOut bool
	Wedged   bool
}

// GuardConfig arms the engine's guard when a front end passes a non-nil
// pointer to one. It has no fields: the guard's rules are fixed constants
// (DESIGN.md §6.2).
type GuardConfig struct{}

// DefaultGuard returns the guard configuration.
func DefaultGuard() GuardConfig { return GuardConfig{} }

// GuardStats counts the guard's interventions over a run.
type GuardStats struct {
	// SanitizedSamples counts readings rejected (NaN/Inf/negative/over
	// range/dropout) and replaced by the last known good value.
	SanitizedSamples int
	// ClampedSamples counts readings pulled back inside the EWMA band.
	ClampedSamples int
	// RescaledIntervals counts decisions where the per-core powers were
	// rescaled to the chip-level measurement.
	RescaledIntervals int
	// EmergencyEntries counts transitions into the emergency throttle.
	EmergencyEntries int
	// EmergencyIntervals counts explore intervals spent throttled.
	EmergencyIntervals int
	// LongestEmergency is the longest single throttle episode, in explore
	// intervals (entry until normal operation resumed).
	LongestEmergency int
	// DeadCores lists cores declared dead, in detection order.
	DeadCores []int
}

// RunStats is a decider's cumulative accounting, read at the end of a run.
// Each group is meaningful only when its flag is set.
type RunStats struct {
	// Guard holds the guard's intervention counters; Guarded reports that
	// the decider has a guard.
	Guard   GuardStats
	Guarded bool
	// Nodes is the policy's cumulative solver search-node count;
	// NodesCounted reports that the policy counts them
	// (SolverPolicy.NodeCount).
	Nodes        int64
	NodesCounted bool
	// Session holds the policy's solver-session counters; SessionOn reports
	// that the policy owns a session.
	Session   solver.SessionStats
	SessionOn bool
}

// sessionPolicy is the method set of a policy that can own a warm-start
// solver session: *SolverPolicy, and any wrapper that embeds it.
type sessionPolicy interface {
	EnsureSession()
	CloseSession()
	InvalidateSession()
	SessionStats() (solver.SessionStats, bool)
}

// nodeCounter is the method set of a policy that counts solver search nodes.
type nodeCounter interface{ SolveNodes() (int64, bool) }

// Decide performs one explore-time decision: build matrices from the
// samples observed under d.Current, consult the policy, and sanitize its
// answer. The returned vector is the manager's own: it is valid until the
// next decision and callers must not mutate it.
func (g *Manager) Decide(d Decision) (modes.Vector, Report) {
	g.predictor.MatricesInto(&g.mx, d.Current, d.Samples)
	cand := g.policy.Decide(Context{
		Plan:           g.plan,
		Current:        d.Current,
		BudgetW:        d.BudgetW,
		Samples:        d.Samples,
		Matrices:       g.mx,
		Lookahead:      d.Lookahead,
		MemBound:       d.MemBound,
		ExploreSeconds: g.predictor.Explore(),
		Warm:           d.Warm,
		Scratch:        &g.scratch,
	})
	g.sanitize(cand, d.Samples)
	return g.out, Report{Candidate: cand}
}

// Matrices returns the §5.5 matrices the last Decide built and its policy
// decided on. They are the manager's own, valid until its next Decide;
// callers must not mutate them.
func (g *Manager) Matrices() *Matrices { return &g.mx }

// InvalidateSession drops the policy's session memo, delta certificate and
// stability flag; a no-op when the policy owns no session.
func (g *Manager) InvalidateSession() {
	if g.sess != nil {
		g.sess.InvalidateSession()
	}
}

// Stats reports the policy's node and session counters. A plain manager has
// no guard.
func (g *Manager) Stats() RunStats {
	var st RunStats
	if g.nodes != nil {
		st.Nodes, st.NodesCounted = g.nodes.SolveNodes()
	}
	if g.sess != nil {
		st.Session, st.SessionOn = g.sess.SessionStats()
	}
	return st
}

// Close releases the policy's session, if it owns one. Idempotent; the
// policy reverts to cold solves.
func (g *Manager) Close() {
	if g.sess != nil {
		g.sess.CloseSession()
	}
}
