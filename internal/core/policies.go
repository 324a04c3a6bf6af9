package core

import (
	"fmt"
	"strings"

	"gpm/internal/modes"
	"gpm/internal/solver"
)

// MaxBIPS is §5.2.3: of every mode combination, pick the highest-throughput
// one under the predicted Power/BIPS Matrices that satisfies the budget.
// Ties break toward lower power, then toward the lexicographically smallest
// vector (fastest low-index cores), making the policy fully deterministic.
// It returns the all-deepest vector when no combination fits. The decision
// is solver.MaxBIPS, which Oracle, StableMaxBIPS and MinPower's fallback
// share: exact branch-and-bound on finite, non-negative predictions past
// 81 mode vectors, the enumeration (solver.Exhaustive) otherwise, with
// bit-identical answers.
type MaxBIPS struct{}

// Name implements Policy.
func (MaxBIPS) Name() string { return "MaxBIPS" }

// Decide implements Policy.
func (MaxBIPS) Decide(ctx Context) modes.Vector {
	return maxThroughput(ctx.out(ctx.NumCores()), ctx.Plan, ctx.BudgetW, ctx.Matrices)
}

// maxThroughput is the MaxBIPS decision over one matrix pair, built in dst.
func maxThroughput(dst modes.Vector, plan modes.Plan, budgetW float64, mx Matrices) modes.Vector {
	v, _ := solver.MaxBIPS(dst, mx.instance(plan, budgetW))
	return v
}

// instance is the solver-package view of a decision over mx.
func (mx Matrices) instance(plan modes.Plan, budgetW float64) solver.Instance {
	return solver.Instance{Plan: plan, BudgetW: budgetW, Power: mx.Power, Instr: mx.Instr}
}

// GreedyMaxBIPS approximates MaxBIPS in O(cores·modes·log(cores·modes))
// instead of modes^cores: start from the all-deepest vector and repeatedly
// apply the single-core, single-step upgrade with the best ΔBIPS/ΔPower
// ratio that still fits the budget. It makes 64-core chips tractable (§5.5
// notes the superlinear state-space growth of exploration with mode count).
// The search is solver.Greedy.
//
// Tie-breaking is part of the contract: when several upgrades share the best
// ΔBIPS/ΔPower ratio, the lowest core index wins, so decisions are
// deterministic even on symmetric (replicated-core) matrices.
type GreedyMaxBIPS struct{}

// Name implements Policy.
func (GreedyMaxBIPS) Name() string { return "GreedyMaxBIPS" }

// Decide implements Policy.
func (GreedyMaxBIPS) Decide(ctx Context) modes.Vector {
	return solver.GreedyInto(ctx.out(ctx.NumCores()), ctx.Matrices.instance(ctx.Plan, ctx.BudgetW))
}

// Priority is §5.2.1: core n-1 has the highest priority, core 0 the lowest.
// Starting from the all-deepest vector, each core — in priority order — is
// raised to the fastest mode that still fits the budget given the cores
// already placed (lower-priority cores held at the deepest mode). This
// yields the paper's "release core4 first, then cores 3 to 1" behaviour, and
// its out-of-order variant for small budget steps: a high-priority core that
// cannot fit its next mode leaves the slack to the next core in order.
type Priority struct{}

// Name implements Policy.
func (Priority) Name() string { return "Priority" }

// Decide implements Policy.
func (Priority) Decide(ctx Context) modes.Vector {
	n := ctx.NumCores()
	deepest := modes.Mode(ctx.Plan.NumModes() - 1)
	v := fill(ctx.out(n), deepest)
	mx := ctx.Matrices
	for c := n - 1; c >= 0; c-- {
		for m := modes.Mode(0); m < deepest; m++ {
			v[c] = m
			if mx.VectorPower(v) <= ctx.BudgetW {
				break
			}
			v[c] = deepest
		}
	}
	if mx.VectorPower(v) > ctx.BudgetW {
		return fill(v, deepest)
	}
	return v
}

// PullHiPushLo is §5.2.2: balance per-core power by slowing the
// highest-power core on a budget overshoot and speeding up the lowest-power
// core when slack allows. Ties break toward the more memory-bound benchmark
// (ctx.MemBound), the paper's stated preference order, then toward the
// lower-numbered core.
type PullHiPushLo struct{}

// Name implements Policy.
func (PullHiPushLo) Name() string { return "PullHiPushLo" }

// Decide implements Policy.
func (PullHiPushLo) Decide(ctx Context) modes.Vector {
	n := ctx.NumCores()
	deepest := modes.Mode(ctx.Plan.NumModes() - 1)
	v := ctx.out(n)
	copy(v, ctx.Current)
	mx := ctx.Matrices
	memBound := func(c int) float64 {
		if c < len(ctx.MemBound) {
			return ctx.MemBound[c]
		}
		return 0
	}

	// Pull down while over budget.
	for mx.VectorPower(v) > ctx.BudgetW {
		pick := -1
		for c := 0; c < n; c++ {
			if v[c] >= deepest {
				continue
			}
			if pick < 0 {
				pick = c
				continue
			}
			pc, pp := mx.Power[c][v[c]], mx.Power[pick][v[pick]]
			switch {
			case pc > pp:
				pick = c
			case pc == pp && memBound(c) > memBound(pick):
				pick = c
			}
		}
		if pick < 0 {
			return fill(v, deepest)
		}
		v[pick]++
	}

	// Push up while slack allows.
	for {
		power := mx.VectorPower(v)
		pick := -1
		for c := 0; c < n; c++ {
			if v[c] == 0 {
				continue
			}
			dp := mx.Power[c][v[c]-1] - mx.Power[c][v[c]]
			if power+dp > ctx.BudgetW {
				continue
			}
			if pick < 0 {
				pick = c
				continue
			}
			pc, pp := mx.Power[c][v[c]], mx.Power[pick][v[pick]]
			switch {
			case pc < pp:
				pick = c
			case pc == pp && memBound(c) > memBound(pick):
				pick = c
			}
		}
		if pick < 0 {
			return v
		}
		v[pick]--
	}
}

// ChipWideDVFS is §5.3: one global mode for the whole chip — the fastest
// uniform setting whose predicted power fits the budget.
type ChipWideDVFS struct{}

// Name implements Policy.
func (ChipWideDVFS) Name() string { return "ChipWideDVFS" }

// Decide implements Policy.
func (ChipWideDVFS) Decide(ctx Context) modes.Vector {
	deepest := modes.Mode(ctx.Plan.NumModes() - 1)
	v := ctx.out(ctx.NumCores())
	for m := modes.Mode(0); m <= deepest; m++ {
		if ctx.Matrices.VectorPower(fill(v, m)) <= ctx.BudgetW {
			return v
		}
	}
	return fill(v, deepest)
}

// Oracle is §5.6: instead of predicted matrices it builds its Power/BIPS
// matrices from the actual future behaviour of the next explore interval
// (ctx.Lookahead) and picks the best fitting combination by the MaxBIPS
// decision — the conservative upper bound the paper compares MaxBIPS
// against.
type Oracle struct{}

// Name implements Policy.
func (Oracle) Name() string { return "Oracle" }

// Decide implements Policy.
func (o Oracle) Decide(ctx Context) modes.Vector {
	if ctx.Lookahead == nil {
		// Without future knowledge, fall back to the predictive optimum.
		return MaxBIPS{}.Decide(ctx)
	}
	n := ctx.NumCores()
	nm := ctx.Plan.NumModes()
	mx := ctx.oracleMatrices(n, nm)
	for c := 0; c < n; c++ {
		if c < len(ctx.Samples) && ctx.Samples[c].Done {
			clear(mx.Power[c])
			clear(mx.Instr[c])
			continue
		}
		for m := 0; m < nm; m++ {
			p, in := ctx.Lookahead(c, modes.Mode(m))
			// Even the oracle pays transition stalls; derate mode changes by
			// the §5.5 factor so its choices account for them.
			if modes.Mode(m) != ctx.Current[c] && ctx.ExploreSeconds > 0 {
				tr := ctx.Plan.TransitionTime(ctx.Current[c], modes.Mode(m)).Seconds()
				in *= ctx.ExploreSeconds / (ctx.ExploreSeconds + tr)
			}
			mx.Power[c][m] = p
			mx.Instr[c][m] = in
		}
	}
	return maxThroughput(ctx.out(n), ctx.Plan, ctx.BudgetW, mx)
}

// oracleMatrices returns n×nm matrices for Oracle to fill: the scratch's,
// laid out once per shape, when ctx carries scratch, fresh ones otherwise.
// Their contents are stale.
func (ctx Context) oracleMatrices(n, nm int) Matrices {
	var mx Matrices
	if ctx.Scratch != nil {
		mx = ctx.Scratch.oracle
	}
	if len(mx.Power) != n || len(mx.flatP) != n*nm {
		// Rows are laid over one flat backing per matrix.
		mx.flatP, mx.flatI = make([]float64, n*nm), make([]float64, n*nm)
		mx.Power, mx.Instr = make([][]float64, n), make([][]float64, n)
		for c := 0; c < n; c++ {
			mx.Power[c] = mx.flatP[c*nm : (c+1)*nm]
			mx.Instr[c] = mx.flatI[c*nm : (c+1)*nm]
		}
		if ctx.Scratch != nil {
			ctx.Scratch.oracle = mx
		}
	}
	return mx
}

// Fixed always returns the same vector; the optimistic-static lower bound of
// §5.7 is built by sweeping Fixed policies over all combinations offline.
type Fixed struct {
	Vector modes.Vector
}

// Name implements Policy.
func (f Fixed) Name() string { return fmt.Sprintf("Fixed%s", f.Vector) }

// Decide implements Policy.
func (f Fixed) Decide(ctx Context) modes.Vector {
	v := fill(ctx.out(ctx.NumCores()), modes.Mode(ctx.Plan.NumModes()-1))
	copy(v, f.Vector)
	return v
}

// MinPower solves the dual problem the paper names in §1 ("minimizing the
// power for a given multi-core performance target"): among combinations
// whose predicted throughput stays at or above TargetFrac of the all-Turbo
// prediction, pick the one with the least predicted power. The chip budget
// still applies as a ceiling.
type MinPower struct {
	// TargetFrac is the throughput floor as a fraction of predicted
	// all-Turbo throughput (e.g. 0.95).
	TargetFrac float64
}

// Name implements Policy.
func (p MinPower) Name() string { return fmt.Sprintf("MinPower(%.2f)", p.TargetFrac) }

// Decide implements Policy.
func (p MinPower) Decide(ctx Context) modes.Vector {
	n := ctx.NumCores()
	mx := ctx.Matrices
	allTurbo := modes.Uniform(n, modes.Turbo)
	floor := mx.VectorInstr(allTurbo) * p.TargetFrac

	best := modes.Vector(nil)
	bestPower := 0.0
	bestInstr := 0.0
	EnumerateVectors(ctx.Plan.NumModes(), n, func(v modes.Vector) bool {
		pw := mx.VectorPower(v)
		if pw > ctx.BudgetW {
			return true
		}
		t := mx.VectorInstr(v)
		if t < floor {
			return true
		}
		if best == nil || pw < bestPower || (pw == bestPower && t > bestInstr) {
			if best == nil {
				best = ctx.out(n)
			}
			copy(best, v)
			bestPower = pw
			bestInstr = t
		}
		return true
	})
	if best == nil {
		// Infeasible floor: fall back to the best throughput under budget.
		return maxThroughput(ctx.out(n), ctx.Plan, ctx.BudgetW, mx)
	}
	return best
}

// PolicyNames lists the names Registry accepts, in help order.
func PolicyNames() []string {
	return []string{"maxbips", "greedy", "priority", "pullhipushlo", "chipwide", "oracle",
		"stable", "fairness", "maxbips-bb", "maxbips-hier"}
}

// Registry returns the named policy, for CLI use. Fixed and MinPower carry
// parameters and are constructed directly instead. The maxbips-* names bind
// the internal/solver allocation solvers (each call returns a fresh solver
// instance, so stateful solvers never share state across simulations); use
// SolverRegistry to parameterize them.
func Registry(name string) (Policy, error) {
	return SolverRegistry(name, solver.Options{})
}

// SolverRegistry is Registry with solver parameters (hierarchy cluster size,
// branch-and-bound node cap) for the maxbips-* policies.
func SolverRegistry(name string, opt solver.Options) (Policy, error) {
	switch name {
	case "maxbips":
		return MaxBIPS{}, nil
	case "greedy":
		return GreedyMaxBIPS{}, nil
	case "priority":
		return Priority{}, nil
	case "pullhipushlo":
		return PullHiPushLo{}, nil
	case "chipwide":
		return ChipWideDVFS{}, nil
	case "oracle":
		return Oracle{}, nil
	case "stable":
		return StableMaxBIPS{}, nil
	case "fairness":
		return Fairness{}, nil
	case "maxbips-bb", "maxbips-hier":
		s, err := solver.New(strings.TrimPrefix(name, "maxbips-"), opt)
		if err != nil {
			return nil, err
		}
		return SolverPolicy{Solver: s}, nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want %s)", name, strings.Join(PolicyNames(), "|"))
	}
}
