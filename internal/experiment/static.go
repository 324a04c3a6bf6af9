package experiment

import (
	"math"

	"gpm/internal/core"
	"gpm/internal/modes"
	"gpm/internal/workload"
)

// StaticChoice is the optimistic-static mode assignment of §5.7 for one
// budget: chosen with oracle knowledge of each benchmark's native per-mode
// behaviour, then held fixed for the whole run.
type StaticChoice struct {
	BudgetFrac float64
	Vector     modes.Vector
	// PredictedPowerW and PredictedRate are the native-execution averages
	// the choice was made on.
	PredictedPowerW float64
	PredictedRate   float64
}

// StaticSelect picks, for each budget fraction, the fixed per-core mode
// vector that maximizes aggregate native throughput subject to the average
// chip power fitting the budget ("the highest achievable performance among
// all possibilities for that budget via static management", §5.7).
func (e *Env) StaticSelect(combo workload.Combo, budgetFrac float64) (StaticChoice, error) {
	base, err := e.Baseline(combo)
	if err != nil {
		return StaticChoice{}, err
	}
	budgetW := budgetFrac * base.EnvelopePowerW()

	n := combo.Cores()
	nm := e.Plan.NumModes()
	// Per-core observed Turbo peaks (the envelope components): a static
	// assignment has no way to correct an overshoot, so it must fit the
	// budget in the worst case, with each peak scaled to the candidate mode
	// by the design-time law. The throughput objective still uses native
	// whole-program averages.
	peak := make([]float64, n)
	for i := 0; i < base.CorePowerW.Len(); i++ {
		for c := 0; c < n; c++ {
			if p := base.CorePowerW.At(i, c); p > peak[c] {
				peak[c] = p
			}
		}
	}
	pw := make([][]float64, n)
	rate := make([][]float64, n)
	for c, name := range combo.Benchmarks {
		pr, err := e.Lib.Profile(name)
		if err != nil {
			return StaticChoice{}, err
		}
		pw[c] = make([]float64, nm)
		rate[c] = make([]float64, nm)
		for m := 0; m < nm; m++ {
			_, t := pr.WholeProgram(modes.Mode(m))
			pw[c][m] = peak[c] * e.Model.ScaleLaw(e.Plan, modes.Mode(m))
			rate[c][m] = pr.PeriodInstr / t
		}
	}

	best := StaticChoice{BudgetFrac: budgetFrac, Vector: modes.Uniform(n, modes.Mode(nm-1))}
	bestRate := -1.0
	core.EnumerateVectors(nm, n, func(v modes.Vector) bool {
		var p, r float64
		for c, m := range v {
			p += pw[c][m]
			r += rate[c][m]
		}
		if p > budgetW {
			return true
		}
		if r > bestRate || (r == bestRate && p < best.PredictedPowerW) {
			bestRate = r
			best.Vector = v.Clone()
			best.PredictedPowerW = p
			best.PredictedRate = r
		}
		return true
	})
	if bestRate < 0 {
		// Even all-deepest exceeds the budget on averages; keep the deepest
		// vector as the least-infeasible choice.
		var p, r float64
		for c := 0; c < n; c++ {
			p += pw[c][nm-1]
			r += rate[c][nm-1]
		}
		best.PredictedPowerW = p
		best.PredictedRate = r
	}
	return best, nil
}

// StaticCurve runs the optimistic-static assignment across the budget sweep.
func (e *Env) StaticCurve(combo workload.Combo) (*PolicyCurve, error) {
	base, err := e.Baseline(combo)
	if err != nil {
		return nil, err
	}
	pc := &PolicyCurve{Policy: "Static", ComboID: combo.ID, Budgets: e.Budgets}
	for _, b := range e.Budgets {
		choice, err := e.StaticSelect(combo, b)
		if err != nil {
			return nil, err
		}
		res, _, err := e.RunPolicy(combo, core.Fixed{Vector: choice.Vector}, b)
		if err != nil {
			return nil, err
		}
		if err := pc.append(res, base, b); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

// degradationGap returns the mean of (a − b) over aligned curves, used by
// Fig 11's "degradation over oracle" summary.
func degradationGap(a, b *PolicyCurve) float64 {
	if len(a.Degradation) != len(b.Degradation) || len(a.Degradation) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range a.Degradation {
		s += a.Degradation[i] - b.Degradation[i]
	}
	return s / float64(len(a.Degradation))
}
