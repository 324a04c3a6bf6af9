package core

import (
	"time"

	"gpm/internal/modes"
	"gpm/internal/solver"
)

// Decision is the uniform input of one explore-boundary step of a global
// manager: everything the sense→predict→decide pipeline hands the manager,
// whether guarded or not. It exists so callers (internal/engine) drive
// Manager and ResilientManager through one interface instead of forking on
// the manager's concrete type.
type Decision struct {
	// BudgetW is the chip power budget for the coming interval, after every
	// upstream middleware stage (budget source, fault spikes, thermal clamp)
	// has been applied.
	BudgetW float64
	// ChipPowerW is the independent chip-level (VRM) power measurement for
	// the previous interval. Only the guarded manager consults it, for
	// cross-checking the per-core sensors.
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
	// Now is the simulated time at the explore boundary. The managers ignore
	// it; the engine's decision supervisor uses it to align injected decision
	// stalls (fault.SolverStall) with the simulated clock.
	Now time.Duration
	// Warm reports that the engine considers Current, the previously
	// actuated vector, a valid warm-start seed; forwarded to the policy via
	// Context.Warm.
	Warm bool
}

// Report is a decider's account of one decision, returned beside the vector.
type Report struct {
	// Candidate is the policy's raw vector before sanitization, nil when the
	// policy did not run. It is owned by the decider and valid until its
	// next decision.
	Candidate modes.Vector
	// Emergency reports that the guard's hard-cap throttle made this
	// decision in place of the policy.
	Emergency bool
}

// RunStats is a decider's cumulative accounting, read at the end of a run.
// Each group is meaningful only when its flag is set.
type RunStats struct {
	// Guard holds the guard's intervention counters; Guarded reports that
	// the decider has a guard.
	Guard   ResilientStats
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

// InvalidateSession forwards to the wrapped manager.
func (r *ResilientManager) InvalidateSession() { r.inner.InvalidateSession() }

// Stats reports the guard's intervention counters beside the wrapped
// manager's policy counters.
func (r *ResilientManager) Stats() RunStats {
	st := r.inner.Stats()
	st.Guard = r.stats
	st.Guard.DeadCores = append([]int(nil), r.stats.DeadCores...)
	if r.emergency && r.emergencyLen > st.Guard.LongestEmergency {
		st.Guard.LongestEmergency = r.emergencyLen
	}
	st.Guarded = true
	return st
}

// Close releases the wrapped manager's session.
func (r *ResilientManager) Close() { r.inner.Close() }
