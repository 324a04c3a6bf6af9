package core

import (
	"math"

	"gpm/internal/modes"
)

// StableMaxBIPS is MaxBIPS with switching hysteresis. Interval-to-interval
// workload jitter makes plain MaxBIPS flip modes for marginal predicted
// gains, paying the Table 5 synchronization stall each time. StableMaxBIPS
// keeps the current vector unless the predicted best combination beats it by
// at least Threshold (fractional throughput), or the current vector no
// longer fits the budget.
//
// The policy is stateless with respect to its own history — the comparison
// baseline is ctx.Current — so it composes with the Manager like any other
// policy.
type StableMaxBIPS struct {
	// Threshold is the minimum fractional predicted-throughput gain that
	// justifies a mode switch (default 0.01 when zero).
	Threshold float64
}

// Name implements Policy.
func (p StableMaxBIPS) Name() string { return "StableMaxBIPS" }

// Decide implements Policy.
func (p StableMaxBIPS) Decide(ctx Context) modes.Vector {
	th := p.Threshold
	if th == 0 {
		th = 0.01
	}
	best := maxThroughput(ctx.out(ctx.NumCores()), ctx.Plan, ctx.BudgetW, ctx.Matrices)
	curPower := ctx.Matrices.VectorPower(ctx.Current)
	if curPower > ctx.BudgetW {
		return best // must move: the present assignment violates the budget
	}
	curInstr := ctx.Matrices.VectorInstr(ctx.Current)
	if bestInstr := ctx.Matrices.VectorInstr(best); bestInstr > curInstr*(1+th) {
		return best
	}
	copy(best, ctx.Current) // stay: the answer is the present assignment
	return best
}

// Fairness maximizes the harmonic mean of predicted per-core speedups
// (relative to each core's own Turbo prediction) subject to the budget —
// the §5.4 weighted-slowdown metric turned into an objective. It trades a
// little aggregate BIPS for balance across threads.
type Fairness struct{}

// Name implements Policy.
func (Fairness) Name() string { return "Fairness" }

// Decide implements Policy.
func (Fairness) Decide(ctx Context) modes.Vector {
	n := ctx.NumCores()
	mx := ctx.Matrices
	deepest := modes.Mode(ctx.Plan.NumModes() - 1)
	best := fill(ctx.out(n), deepest)
	bestScore := -1.0
	bestPower := 0.0
	EnumerateVectors(ctx.Plan.NumModes(), n, func(v modes.Vector) bool {
		p := mx.VectorPower(v)
		if p > ctx.BudgetW {
			return true
		}
		// Harmonic mean of per-core speedups vs their own Turbo prediction;
		// completed cores (zero prediction) are excluded.
		var inv float64
		var k int
		for c, m := range v {
			turbo := mx.Instr[c][0]
			if turbo <= 0 {
				continue
			}
			s := mx.Instr[c][m] / turbo
			if s <= 0 {
				return true // a starved live core disqualifies the vector
			}
			inv += 1 / s
			k++
		}
		score := 1.0
		if k > 0 {
			score = float64(k) / inv
		}
		if score > bestScore || (score == bestScore && p < bestPower) {
			bestScore = score
			bestPower = p
			copy(best, v)
		}
		return true
	})
	return best
}

// ScoreVector is a testing/inspection helper: the predicted throughput and
// power of vector v under matrices mx, with NaN protection.
func ScoreVector(mx Matrices, v modes.Vector) (instr, power float64) {
	instr = mx.VectorInstr(v)
	power = mx.VectorPower(v)
	if math.IsNaN(instr) {
		instr = 0
	}
	if math.IsNaN(power) {
		power = 0
	}
	return instr, power
}
