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
	// modeF is MatricesInto's per-call table of the factors that depend on
	// the modes alone, carved from the same backing as the rows: nm power
	// scales, nm frequency scales, then the nm×nm transition deratings.
	modeF []float64

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
	// folds in leakage (power.Model.ScaleLaw) reduces the residual error. It
	// must be a pure function of the mode: MatricesInto evaluates it once
	// per mode and call, not once per core.
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
		len(mx.flatP) == n*nm && len(mx.flatI) == n*nm && len(mx.modeF) == nm*(nm+2) &&
		(n == 0 || nm == 0 || (len(mx.Power[0]) == nm && len(mx.Instr[0]) == nm &&
			&mx.Power[0][0] == &mx.flatP[0] && &mx.Instr[0][0] == &mx.flatI[0]))
	if !reuse {
		backing := make([]float64, 2*n*nm+nm*(nm+2))
		mx.flatP = backing[: n*nm : n*nm]
		mx.flatI = backing[n*nm : 2*n*nm : 2*n*nm]
		mx.modeF = backing[2*n*nm:]
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
	// The factors that depend on the modes alone, once per call: the rows
	// below take the same operands in the same order as evaluating them per
	// core would, so every entry keeps its bits.
	scale, freq, derate := mx.modeF[:nm], mx.modeF[nm:2*nm], mx.modeF[2*nm:]
	derating := p.DerateTransitions && p.ExploreSeconds > 0
	for a := 0; a < nm; a++ {
		scale[a] = p.scale(modes.Mode(a))
		freq[a] = p.Plan.FreqScale(modes.Mode(a))
		if !derating {
			continue
		}
		for b := 0; b < nm; b++ {
			tr := p.Plan.TransitionTime(modes.Mode(a), modes.Mode(b)).Seconds()
			derate[a*nm+b] = p.ExploreSeconds / (p.ExploreSeconds + tr)
		}
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
		pw, in := mx.Power[c], mx.Instr[c]
		if samples[c].Done {
			// Completed cores predict zero in every mode; rows may be reused,
			// so zero them explicitly.
			for m := range pw {
				pw[m] = 0
				in[m] = 0
			}
			continue
		}
		cur := current[c]
		// Normalize the observation to Turbo, then project to each mode.
		pTurbo := samples[c].PowerW / scale[cur]
		iTurbo := samples[c].Instr / freq[cur]
		der := derate[int(cur)*nm : int(cur)*nm+nm]
		for m := range pw {
			pw[m] = pTurbo * scale[m]
			instr := iTurbo * freq[m]
			if derating {
				instr *= der[m]
			}
			in[m] = instr
		}
		// Staying in the current mode costs no transition: its entry is
		// rewritten underated, which keeps a per-mode branch out of the
		// loop above.
		in[cur] = iTurbo * freq[cur]
	}
	if changed {
		mx.gen = newGen
	}
}

// Context is everything a policy may consult for one decision.
type Context struct {
	Plan modes.Plan
	// Current is the mode vector in force during the sampled interval
	// (Decision.Current). It is the caller's vector: policies must not
	// mutate it.
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
	// Warm reports that the caller (the engine loop) considers Current, the
	// mode vector actually actuated for the previous interval, a valid
	// warm-start seed — false on the first decision and after
	// discontinuities (supervisor degradation, budget spikes, core death).
	// Session-owning policies then pass Current to solver.Session.Solve as
	// the hint, which re-validates it against the current instance; a hint
	// can therefore accelerate a decision but never change its result.
	Warm bool
	// Scratch, when non-nil, is working memory the Manager lends the policy
	// for this decision. The built-in policies build their answer in it, so
	// a steady-state decision allocates nothing; a Context built without it
	// makes them allocate their answer instead.
	Scratch *Scratch
}

// Scratch is the working memory a Manager owns and lends its policy through
// Context.Scratch: the vector a policy builds its answer in, and the
// matrices Oracle fills from the lookahead. An answer built in it stays
// valid until the manager's next decision.
type Scratch struct {
	out    modes.Vector
	oracle Matrices
}

// NumCores returns the width of the decision.
func (ctx Context) NumCores() int { return len(ctx.Current) }

// out returns an n-mode vector for the policy's answer: the scratch vector
// when ctx carries scratch, a fresh one otherwise. Its contents are stale.
func (ctx Context) out(n int) modes.Vector {
	sc := ctx.Scratch
	if sc == nil {
		return make(modes.Vector, n)
	}
	if cap(sc.out) < n {
		sc.out = make(modes.Vector, n)
	}
	return sc.out[:n]
}

// fill sets every core of v to mode m and returns v.
func fill(v modes.Vector, m modes.Mode) modes.Vector {
	for c := range v {
		v[c] = m
	}
	return v
}

// Policy selects the next mode vector. Implementations must be
// deterministic, must not retain ctx and must not mutate ctx.Current. The
// returned vector may be built in ctx.Scratch: the manager copies it before
// its next decision.
type Policy interface {
	Name() string
	Decide(ctx Context) modes.Vector
}

// Manager is the global power manager of §2: at every explore boundary it
// predicts the matrices and applies its policy. The vector in force is the
// caller's (Decision.Current); the manager keeps only the buffer it returns
// its answer in.
type Manager struct {
	plan      modes.Plan
	policy    Policy
	predictor MatrixPredictor
	// out is the buffer each decision is sanitized into and returned in.
	out modes.Vector
	// scratch is the working memory lent to the policy (Context.Scratch).
	scratch Scratch
	// mx is the reusable matrices backing (MatricesInto target), so the
	// prediction step allocates nothing in steady state.
	mx Matrices
	// sess and nodes are the policy's session and node-count methods,
	// resolved once; nil when the policy has none.
	sess  sessionPolicy
	nodes nodeCounter
}

// NewManager builds a manager for n cores around any MatrixPredictor — the
// analytic Predictor or a stateful upgrade such as the HistoryPredictor. A
// policy that can own a solver session (SolverPolicy built by
// NewSolverPolicy, or a wrapper embedding it) gets one here; the manager
// owns it until Close.
func NewManager(plan modes.Plan, policy Policy, pred MatrixPredictor, n int) *Manager {
	g := &Manager{
		plan:      plan,
		policy:    policy,
		predictor: pred,
		out:       make(modes.Vector, n),
	}
	if sp, ok := policy.(sessionPolicy); ok {
		sp.EnsureSession()
		g.sess = sp
	}
	g.nodes, _ = policy.(nodeCounter)
	return g
}

// sanitize clamps a policy result to a legal vector in g.out and parks
// finished cores in the deepest mode.
func (g *Manager) sanitize(v modes.Vector, samples []Sample) {
	deepest := modes.Mode(g.plan.NumModes() - 1)
	for i := range g.out {
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
		g.out[i] = m
	}
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
