// Package solver provides scalable budgeted mode-allocation solvers for the
// global power manager's per-interval decision: given the §5.5 Power/BIPS
// Matrices and a chip budget, pick the per-core mode vector that maximizes
// predicted throughput without exceeding the budget.
//
// The paper's MaxBIPS policy (§5.2.3) is defined by enumerating all
// modes^cores vectors, which is exact but explodes past ~16 cores. This
// package factors the decision out of internal/core into pluggable solvers
// behind one interface, all proven against the exhaustive kernel:
//
//   - Exhaustive: the brute-force enumeration itself — the reference that
//     defines the MaxBIPS decision. MaxBIPS, the entry point behind core's
//     MaxBIPS, Oracle and StableMaxBIPS policies, returns its vector: by
//     LexTies BB wherever that is provably the same answer and faster, by
//     Exhaustive otherwise.
//   - BB: exact branch-and-bound seeded with the greedy incumbent and pruned
//     by a fractional (convex-hull water-filling) relaxation upper bound —
//     exact answers at 64+ cores in microseconds to milliseconds.
//   - Hier: a two-level manager that partitions the chip budget across core
//     clusters, solves each cluster independently, and rebalances slack
//     between clusters — the 1000-core scaling story.
//   - Greedy: the marginal-utility heuristic behind core.GreedyMaxBIPS, used
//     standalone and as the incumbent seed for BB and Hier.
//
// All solvers are deterministic: ties on predicted throughput resolve to
// lower power, then to the lexicographically smallest vector, matching the
// exhaustive kernel.
package solver

import (
	"fmt"
	"strings"
	"time"

	"gpm/internal/modes"
)

// Instance is one budgeted mode-allocation problem: choose one mode per core
// so that the summed predicted power stays within BudgetW and the summed
// predicted instructions are maximal.
type Instance struct {
	Plan    modes.Plan
	BudgetW float64
	// Power[c][m] and Instr[c][m] are the §5.5 matrices: predicted average
	// watts and committed instructions for core c in mode m.
	Power [][]float64
	Instr [][]float64
	// FlatPower/FlatInstr, when non-nil, are row-major contiguous aliases of
	// Power/Instr (length cores×modes, Power[c][m] == FlatPower[c*modes+m]).
	// They are optional and never consulted for scoring — Sessions use them
	// as a fast path for memo comparison and sub-instance slicing. Callers
	// that set them are responsible for the aliasing invariant
	// (core.Matrices.Flat provides it).
	FlatPower []float64
	FlatInstr []float64
	// Gens/Gen/GenID, when GenID != 0, are the predictor change-detection
	// handshake (core.Matrices.Generations): GenID identifies the matrix
	// backing, Gen is its current generation, and Gens[c] is the generation
	// at which core c's rows last changed. Like the flat aliases they are
	// optional and never consulted for scoring — Sessions use them to turn
	// the memo comparison into an O(1) generation check and to learn the
	// dirty-core set for incremental re-solves. Callers that set them are
	// responsible for the invariant that two instances with equal GenID and
	// Gen have bit-identical matrices.
	Gens  []uint64
	Gen   uint64
	GenID uint64
}

// NumCores returns the decision width.
func (in Instance) NumCores() int { return len(in.Power) }

// NumModes returns the number of levels per core.
func (in Instance) NumModes() int { return in.Plan.NumModes() }

// VectorPower sums predicted power in core order. All solvers score
// candidate vectors with these canonical-order sums so float associativity
// cannot make two solvers disagree about the same vector.
func (in Instance) VectorPower(v modes.Vector) float64 { return sumAt(in.Power, v) }

// VectorInstr sums predicted instructions in core order.
func (in Instance) VectorInstr(v modes.Vector) float64 { return sumAt(in.Instr, v) }

// sumAt is the canonical core-order sum of rows[c][v[c]] behind VectorPower
// and VectorInstr; BB's leaves call it on the rows directly.
func sumAt(rows [][]float64, v modes.Vector) float64 {
	var s float64
	for c, m := range v {
		s += rows[c][m]
	}
	return s
}

// deepest returns the all-deepest vector, the shared infeasibility fallback
// (identical to the exhaustive kernel's).
func (in Instance) deepestVector() modes.Vector {
	return modes.Uniform(in.NumCores(), modes.Mode(in.NumModes()-1))
}

// budgetEps is the absolute feasibility slack used for internal pruning and
// cross-solver checks; canonical-order sums at leaves are the authority.
func (in Instance) budgetEps() float64 {
	b := in.BudgetW
	if b < 0 {
		b = -b
	}
	return 1e-9 * (1 + b)
}

// better is the kernel's deterministic improvement rule: higher throughput
// wins, equal throughput prefers lower power. Remaining ties keep the
// earlier vector, so solvers that visit candidates in lexicographic order
// and replace strictly reproduce the exhaustive kernel bit-for-bit.
func better(t, p, bestT, bestP float64) bool {
	return t > bestT || (t == bestT && p < bestP)
}

// Stats describes one Solve call for benchmarking and quality accounting.
type Stats struct {
	// Solver is the registry name of the solver that produced the vector.
	Solver string
	// Nodes counts evaluated states: vectors for enumerative solvers,
	// branch nodes for BB, candidate upgrades for greedy.
	Nodes int64
	// Pruned counts subtrees cut by bounds (BB only).
	Pruned int64
	// Exact reports that the returned vector is a true optimum of the
	// instance (not merely of a relaxation or decomposition).
	Exact bool
	// UpperBoundInstr is the fractional-relaxation throughput upper bound
	// when the solver computed one (BB's root bound).
	UpperBoundInstr float64
	// Elapsed is the wall-clock duration of the Solve call.
	Elapsed time.Duration
	// Aborted reports that the solve was cut short by a Checkpoint (wall
	// deadline, node budget, or external abort). The returned vector is the
	// best incumbent found before the cut — still feasible whenever any
	// feasible vector was seen — and Exact is false.
	Aborted bool
}

// Solver is one budgeted mode-allocation algorithm. Implementations are
// deterministic, stateless, and safe for concurrent reuse across calls.
// Cross-interval state (Hier's Alpha share smoothing, warm hints, scratch
// reuse) lives in a Session, which owns exactly one solver and is NOT safe
// for concurrent use; bare Hier.Solve with Alpha > 0 behaves as Alpha == 0.
type Solver interface {
	Name() string
	Solve(in Instance) (modes.Vector, Stats)
}

// Options parameterizes New.
type Options struct {
	// ClusterSize is Hier's cores-per-cluster (default 8).
	ClusterSize int
	// NodeLimit caps BB's branch nodes; 0 means unlimited. When the cap is
	// hit BB returns its incumbent with Exact=false.
	NodeLimit int64
}

// Validate checks Options for values that would silently misbehave inside
// the solvers (a negative cluster size degenerates Hier, a negative node
// count reads as "unlimited"). All failures are *OptionError.
func (opt Options) Validate() error {
	if opt.ClusterSize < 0 {
		return &OptionError{Field: "ClusterSize", Value: opt.ClusterSize, Reason: "must be non-negative (0 selects the default)"}
	}
	if opt.NodeLimit < 0 {
		return &OptionError{Field: "NodeLimit", Value: opt.NodeLimit, Reason: "must be non-negative (0 means unlimited)"}
	}
	return nil
}

// OptionError is the typed validation error returned by Options.Validate and
// New, mirroring engine.OptionError: it names the field, the rejected value,
// and what a valid value looks like.
type OptionError struct {
	// Field is the Options field that was rejected.
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what a valid value looks like.
	Reason string
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("solver: option %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Names lists the registry names accepted by New.
func Names() []string { return []string{"exhaustive", "bb", "hier", "greedy"} }

// New builds a solver by registry name. Options are validated first; a
// rejected option returns a *OptionError.
func New(name string, opt Options) (Solver, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case "exhaustive":
		return Exhaustive{}, nil
	case "bb":
		return &BB{NodeLimit: opt.NodeLimit}, nil
	case "hier":
		return &Hier{ClusterSize: opt.ClusterSize, Inner: &BB{NodeLimit: opt.NodeLimit}}, nil
	case "greedy":
		return Greedy{}, nil
	default:
		return nil, fmt.Errorf("solver: unknown solver %q (want %s)", name, strings.Join(Names(), "|"))
	}
}

// Greedy is the marginal-utility heuristic: start from the all-deepest
// vector and repeatedly apply the single-core, single-step upgrade with the
// best ΔBIPS/ΔPower ratio that still fits the budget. Ties on the ratio
// resolve to the lowest core index — the tie rule core.GreedyMaxBIPS
// documents. Cold calls and sessions run the one sorted walk (greedyWalk),
// in O(n·m·log(n·m)); a cold call borrows the walk's buffers from the
// coldScratch free list.
type Greedy struct{}

// Name implements Solver.
func (Greedy) Name() string { return "greedy" }

// Solve implements Solver.
func (g Greedy) Solve(in Instance) (modes.Vector, Stats) {
	return g.SolveBounded(in, nil)
}

// GreedyInto returns Greedy's answer on in, built in dst (grown first when
// it is shorter than in.NumCores()) instead of a fresh vector.
func GreedyInto(dst modes.Vector, in Instance) modes.Vector {
	v, _ := Greedy{}.solveCold(dst, in, nil)
	return v
}

// SolveBounded implements Bounded.
func (g Greedy) SolveBounded(in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	return g.solveCold(nil, in, cp)
}

// solveCold runs the greedy's body in buffers borrowed from the coldScratch
// free list and copies its vector into dst (see resizeVector).
func (g Greedy) solveCold(dst modes.Vector, in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	cs := takeColdBB()
	v, st := g.solve(&in, cp, &cs.walk)
	dst = resizeVector(dst, len(v))
	copy(dst, v)
	giveColdBB(cs)
	return dst, st
}

// solve is the greedy's one body, run by cold solves and sessions alike: the
// walk in w. The returned vector aliases w.
func (g Greedy) solve(in *Instance, cp *Checkpoint, w *walkScratch) (modes.Vector, Stats) {
	start := time.Now()
	v, nodes, aborted := greedyWalk(in, cp, w, nil)
	return v, Stats{Solver: g.Name(), Nodes: nodes, Aborted: aborted, Elapsed: time.Since(start)}
}

// upgradeDelta scores the single-step upgrade of a core from mode cur to
// cur−1, given its power and instruction rows: the power delta and the
// ΔBIPS/ΔPower ratio under the greedy's conventions (near-zero ΔPower with
// positive ΔBIPS reads as free throughput). It takes rows rather than the
// Instance so the inlined call does not copy the instance per candidate.
func upgradeDelta(power, instr []float64, cur modes.Mode) (dp, ratio float64) {
	up := cur - 1
	dp = power[up] - power[cur]
	di := instr[up] - instr[cur]
	ratio = di
	if dp > 1e-12 {
		ratio = di / dp
	} else if di > 0 {
		ratio = 1e18 // free throughput
	}
	return dp, ratio
}
