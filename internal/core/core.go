// Package core implements the paper's primary contribution: the global CMP
// power manager (§2) and its mode-selection machinery.
//
// At every explore interval the manager receives each core's observed
// (power, committed instructions) for the previous interval, predicts the
// Power and BIPS Matrices for all other modes analytically (§5.5 — cubic
// power scaling, linear BIPS scaling, transition-cost derating), and asks a
// Policy for the next per-core mode vector subject to the chip power budget.
//
// Policies implemented: MaxBIPS, Priority, PullHiPushLo, ChipWideDVFS (the
// paper's four), the Oracle upper bound (§5.6), a Fixed vector used for
// optimistic-static lower bounds (§5.7), plus two extensions the paper
// motivates: GreedyMaxBIPS (near-optimal at 3^N-infeasible scales, §5.5's
// state-space concern) and MinPower (the dual problem named in §1).
package core

import (
	"fmt"
	"sync/atomic"

	"gpm/internal/modes"
)

// Sample is one core's observation for the previous explore interval, as
// reported by the on-core current sensors and performance counters (§2).
type Sample struct {
	// PowerW is the average core power over the interval in watts.
	PowerW float64
	// Instr is the number of instructions committed in the interval.
	Instr float64
	// Done reports that the core's program has completed; the manager parks
	// finished cores in the deepest mode.
	Done bool
}

// Matrices are the §5.5 Power and BIPS Matrices: predicted average power and
// committed instructions for each (core, mode) pair over the next explore
// interval, derived from the observed samples by design-time scaling laws.
type Matrices struct {
	// Power[c][m] is predicted average watts for core c in mode m.
	Power [][]float64
	// Instr[c][m] is predicted committed instructions for core c in mode m,
	// including the transition-overhead derating when m differs from the
	// core's current mode.
	Instr [][]float64

	// flatP/flatI are row-major contiguous backings of Power/Instr when the
	// matrices were laid out by MatricesInto (Power[c][m] == flatP[c*nm+m]).
	// Solver sessions alias them for memo comparison and cluster slicing.
	flatP, flatI []float64

	// Change-detection handshake, maintained by MatricesInto: genID uniquely
	// identifies this backing (a fresh ID on every re-layout), gen is bumped
	// once per call that changed anything, and gens[c] records the generation
	// at which core c's rows last changed. lastS/lastM are the per-core
	// (sample, mode) inputs the current rows were computed from — a row is a
	// pure function of them under a fixed predictor, so an equal input means
	// the row is bit-identical and both the fill and the stamp are skipped.
	gens  []uint64
	gen   uint64
	genID uint64
	lastS []Sample
	lastM modes.Vector
}

// matricesGenID hands out process-unique backing IDs (0 reserved: untracked).
var matricesGenID atomic.Uint64

// Generations exposes the change-detection handshake for the matrices'
// current contents: per-core generation stamps, the overall generation, and
// the backing ID (0 for hand-shaped matrices, which are untracked). Solver
// sessions use it — threaded through solver.Instance by SolverPolicy — to
// answer memo lookups in O(1) and learn the dirty-core set in O(cores).
// The invariant callers rely on: two snapshots with equal genID and gen have
// bit-identical matrices, and gens[c] differing between them implies core
// c's rows may differ.
func (mx Matrices) Generations() (gens []uint64, gen, genID uint64) {
	if len(mx.gens) != len(mx.Power) {
		return nil, 0, 0
	}
	return mx.gens, mx.gen, mx.genID
}

// Flat returns the row-major contiguous backings of the matrices when they
// were laid out by MatricesInto, and ok=false for hand-shaped matrices. The
// slices alias Power/Instr — same floats, one pass.
func (mx *Matrices) Flat() (power, instr []float64, ok bool) {
	if mx.flatP == nil {
		return nil, nil, false
	}
	return mx.flatP, mx.flatI, true
}

// VectorPower sums predicted power across cores for mode vector v.
func (mx Matrices) VectorPower(v modes.Vector) float64 {
	var p float64
	for c, m := range v {
		p += mx.Power[c][m]
	}
	return p
}

// VectorInstr sums predicted instructions across cores for mode vector v.
func (mx Matrices) VectorInstr(v modes.Vector) float64 {
	var t float64
	for c, m := range v {
		t += mx.Instr[c][m]
	}
	return t
}

// Predictor converts observed samples into Matrices.
type Predictor struct {
	Plan modes.Plan
	// PowerScale maps a mode to its total-power scale relative to Turbo. If
	// nil, the pure cubic V²f law of §5.5 is used. A design-time law that
	// folds in leakage (power.Model.ScaleLaw) reduces the residual error.
	PowerScale func(m modes.Mode) float64
	// ExploreSeconds is the decision interval length.
	ExploreSeconds float64
	// DerateTransitions applies the §5.5 scaling factors (e.g. 500/520) to
	// BIPS predictions of mode changes.
	DerateTransitions bool
}

func (p Predictor) scale(m modes.Mode) float64 {
	if p.PowerScale != nil {
		return p.PowerScale(m)
	}
	return p.Plan.PowerScale(m)
}

// Matrices builds the §5.5 matrices given each core's current mode and
// observed sample. Completed cores predict zero power and zero instructions
// in every mode.
func (p Predictor) Matrices(current modes.Vector, samples []Sample) Matrices {
	var mx Matrices
	p.MatricesInto(&mx, current, samples)
	return mx
}

// MatricesInto is the allocation-free form of Matrices: it fills mx in
// place, reusing its rows when they already have the right shape (a fresh
// flat backing array is laid out otherwise). The arithmetic is identical to
// Matrices entry for entry, so the two forms are interchangeable
// bit-for-bit; it exists for per-decision callers (the engine's decision
// supervisor) that must not allocate in steady state.
//
// On reuse, rows whose (sample, current mode) inputs equal the previous
// call's are left untouched — each row is a pure function of those inputs
// under a fixed predictor, so the skipped row is bit-identical to a refill —
// and the generation handshake (Generations) stamps exactly the rows that
// changed. Callers therefore must not (a) mutate filled matrices externally
// or (b) drive the same Matrices value through predictors with different
// parameters; either breaks the purity assumption behind the skip.
func (p Predictor) MatricesInto(mx *Matrices, current modes.Vector, samples []Sample) {
	n := len(current)
	if len(samples) != n {
		panic(fmt.Sprintf("core: %d samples for %d cores", len(samples), n))
	}
	nm := p.Plan.NumModes()
	// Reuse requires both the right shape and rows that alias our own flat
	// layout (hand-shaped matrices are relaid so Flat stays truthful).
	reuse := len(mx.Power) == n && len(mx.Instr) == n &&
		len(mx.flatP) == n*nm && len(mx.flatI) == n*nm &&
		(n == 0 || nm == 0 || (len(mx.Power[0]) == nm && len(mx.Instr[0]) == nm &&
			&mx.Power[0][0] == &mx.flatP[0] && &mx.Instr[0][0] == &mx.flatI[0]))
	if !reuse {
		backing := make([]float64, 2*n*nm)
		mx.flatP = backing[: n*nm : n*nm]
		mx.flatI = backing[n*nm:]
		mx.Power = make([][]float64, n)
		mx.Instr = make([][]float64, n)
		for c := 0; c < n; c++ {
			mx.Power[c] = mx.flatP[c*nm : (c+1)*nm : (c+1)*nm]
			mx.Instr[c] = mx.flatI[c*nm : (c+1)*nm : (c+1)*nm]
		}
	}
	// Generation tracking: a fresh backing gets a fresh ID and every row
	// stamped; a reused one only stamps (and refills) rows whose inputs
	// changed. NaN inputs compare unequal to themselves, so a poisoned sample
	// is conservatively dirty every interval and can never be skipped into.
	fresh := !reuse || len(mx.gens) != n || len(mx.lastS) != n || len(mx.lastM) != n
	if fresh {
		mx.genID = matricesGenID.Add(1)
		mx.gen = 0
		mx.gens = make([]uint64, n)
		mx.lastS = make([]Sample, n)
		mx.lastM = make(modes.Vector, n)
	}
	newGen := mx.gen + 1
	changed := false
	for c := 0; c < n; c++ {
		if !fresh && samples[c] == mx.lastS[c] && current[c] == mx.lastM[c] {
			continue // same inputs ⇒ bit-identical row: skip fill and stamp
		}
		mx.gens[c] = newGen
		mx.lastS[c] = samples[c]
		mx.lastM[c] = current[c]
		changed = true
		if samples[c].Done {
			// Completed cores predict zero in every mode; rows may be reused,
			// so zero them explicitly.
			for m := 0; m < nm; m++ {
				mx.Power[c][m] = 0
				mx.Instr[c][m] = 0
			}
			continue
		}
		cur := current[c]
		// Normalize the observation to Turbo, then project to each mode.
		pTurbo := samples[c].PowerW / p.scale(cur)
		iTurbo := samples[c].Instr / p.Plan.FreqScale(cur)
		for m := 0; m < nm; m++ {
			mode := modes.Mode(m)
			mx.Power[c][m] = pTurbo * p.scale(mode)
			instr := iTurbo * p.Plan.FreqScale(mode)
			if p.DerateTransitions && mode != cur && p.ExploreSeconds > 0 {
				tr := p.Plan.TransitionTime(cur, mode).Seconds()
				instr *= p.ExploreSeconds / (p.ExploreSeconds + tr)
			}
			mx.Instr[c][m] = instr
		}
	}
	if changed {
		mx.gen = newGen
	}
}

// Context is everything a policy may consult for one decision.
type Context struct {
	Plan modes.Plan
	// Current is the mode vector in force during the sampled interval.
	Current modes.Vector
	// BudgetW is the chip power budget for the next interval in watts.
	BudgetW float64
	// Samples are the per-core observations for the last interval.
	Samples []Sample
	// Matrices are the §5.5 predictions derived from Samples.
	Matrices Matrices
	// Lookahead, when non-nil, returns the *actual* average power and
	// instructions core c would produce over the next interval in mode m.
	// Only oracle policies may use it (§5.6).
	Lookahead func(c int, m modes.Mode) (powerW, instr float64)
	// MemBound ranks cores by memory-boundedness in [0,1] (1 = most
	// memory-bound); PullHiPushLo uses it as its preference order (§5.2.2).
	MemBound []float64
	// ExploreSeconds is the decision interval length, for policies that
	// reason about transition overheads directly.
	ExploreSeconds float64
	// Hint is the mode vector actually actuated for the previous interval,
	// when the caller (the engine loop) considers it a valid warm-start seed
	// — nil on the first decision and after discontinuities (supervisor
	// degradation, budget spikes, core death). Session-owning policies pass
	// it to solver.Session.Solve, which re-validates it against the current
	// instance; a hint can therefore accelerate a decision but never change
	// its result.
	Hint modes.Vector
}

// NumCores returns the width of the decision.
func (ctx Context) NumCores() int { return len(ctx.Current) }

// Policy selects the next mode vector. Implementations must be
// deterministic and must not retain ctx.
type Policy interface {
	Name() string
	Decide(ctx Context) modes.Vector
}

// Manager is the global power manager: it owns the current mode vector and
// applies a policy at every explore boundary.
type Manager struct {
	plan      modes.Plan
	policy    Policy
	predictor MatrixPredictor
	current   modes.Vector
	// lastCandidate is the policy's raw output from the most recent Step,
	// before sanitize (observability only; nil until the first decision and
	// while an outer guard bypasses the policy).
	lastCandidate modes.Vector
	// mx is the reusable matrices backing (MatricesInto target), so the
	// prediction step allocates nothing in steady state.
	mx Matrices
	// hint is the warm-start vector for the next Step, staged by
	// StepDecision; consumed (and cleared) by exactly one decision.
	hint modes.Vector
}

// NewManager builds a manager for n cores, starting all cores at Turbo.
func NewManager(plan modes.Plan, policy Policy, pred Predictor, n int) *Manager {
	return NewManagerWith(plan, policy, pred, n)
}

// NewManagerWith builds a manager around any MatrixPredictor — the analytic
// Predictor (NewManager's fixed choice, bit-identical through this path) or
// a stateful upgrade such as the HistoryPredictor.
func NewManagerWith(plan modes.Plan, policy Policy, pred MatrixPredictor, n int) *Manager {
	return &Manager{
		plan:      plan,
		policy:    policy,
		predictor: pred,
		current:   modes.Uniform(n, modes.Turbo),
	}
}

// Current returns the mode vector currently in force.
func (g *Manager) Current() modes.Vector { return g.current.Clone() }

// SetCurrent overrides the mode vector (used when resuming or testing).
func (g *Manager) SetCurrent(v modes.Vector) { g.current = v.Clone() }

// Policy returns the active policy.
func (g *Manager) Policy() Policy { return g.policy }

// Step performs one explore-time decision: build matrices from samples,
// consult the policy, sanitize and adopt the result. lookahead and memBound
// may be nil.
func (g *Manager) Step(budgetW float64, samples []Sample, lookahead func(int, modes.Mode) (float64, float64), memBound []float64) modes.Vector {
	g.predictor.MatricesInto(&g.mx, g.current, samples)
	ctx := Context{
		Plan:           g.plan,
		Current:        g.current.Clone(),
		BudgetW:        budgetW,
		Samples:        samples,
		Matrices:       g.mx,
		Lookahead:      lookahead,
		MemBound:       memBound,
		ExploreSeconds: g.predictor.Explore(),
		Hint:           g.hint,
	}
	g.hint = nil
	next := g.policy.Decide(ctx)
	g.lastCandidate = next
	next = g.sanitize(next, samples)
	g.current = next
	return next.Clone()
}

// LastCandidate returns the policy's raw vector from the most recent Step,
// before sanitization — nil before the first decision or while a guard's
// emergency throttle bypassed the policy. The returned slice is the policy's
// own buffer; callers must not mutate it.
func (g *Manager) LastCandidate() modes.Vector { return g.lastCandidate }

// sanitize clamps a policy result to a legal vector and parks finished cores
// in the deepest mode.
func (g *Manager) sanitize(v modes.Vector, samples []Sample) modes.Vector {
	n := len(g.current)
	out := make(modes.Vector, n)
	deepest := modes.Mode(g.plan.NumModes() - 1)
	for i := 0; i < n; i++ {
		m := modes.Turbo
		if i < len(v) {
			m = v[i]
		}
		if !g.plan.Valid(m) {
			m = deepest
		}
		if i < len(samples) && samples[i].Done {
			m = deepest
		}
		out[i] = m
	}
	return out
}

// EnumerateVectors calls fn for every assignment of numModes modes to n
// cores (numModes^n vectors). The buffer passed to fn is reused; clone it to
// retain. Enumeration stops early if fn returns false.
func EnumerateVectors(numModes, n int, fn func(modes.Vector) bool) {
	v := make(modes.Vector, n)
	for {
		if !fn(v) {
			return
		}
		// Odometer increment.
		i := n - 1
		for i >= 0 {
			v[i]++
			if int(v[i]) < numModes {
				break
			}
			v[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}
