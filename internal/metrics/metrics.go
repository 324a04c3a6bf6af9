// Package metrics computes the evaluation quantities of §5.4: throughput
// degradation relative to all-Turbo execution, budget-fit ratios, and the
// fairness-aware weighted slowdown (harmonic mean of per-thread speedups)
// and weighted speedup (arithmetic mean).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Degradation returns the performance degradation of a policy run relative
// to a baseline over the same wall-clock window: 1 − policy/baseline
// aggregate committed instructions.
func Degradation(policyInstr, baselineInstr float64) float64 {
	if baselineInstr <= 0 {
		return 0
	}
	return 1 - policyInstr/baselineInstr
}

// PerThreadSpeedups divides per-core instruction counts element-wise:
// policy[i]/baseline[i].
func PerThreadSpeedups(policy, baseline []float64) ([]float64, error) {
	if len(policy) != len(baseline) {
		return nil, fmt.Errorf("metrics: %d policy cores vs %d baseline cores", len(policy), len(baseline))
	}
	out := make([]float64, len(policy))
	for i := range policy {
		if baseline[i] <= 0 {
			return nil, fmt.Errorf("metrics: baseline core %d committed nothing", i)
		}
		out[i] = policy[i] / baseline[i]
	}
	return out, nil
}

// HarmonicMean returns the harmonic mean of positive values.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// ArithmeticMean returns the mean of the values.
func ArithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// WeightedSlowdown is §5.4's fairness metric: 100% minus the harmonic mean
// of per-thread speedups, returned as a fraction (0.03 = 3%).
func WeightedSlowdown(speedups []float64) float64 {
	return 1 - HarmonicMean(speedups)
}

// WeightedSpeedupSlowdown is the arithmetic-mean variant the paper reports
// as giving "negligible differences".
func WeightedSpeedupSlowdown(speedups []float64) float64 {
	return 1 - ArithmeticMean(speedups)
}

// BudgetFit returns consumed/budget power as a fraction — the budget-curve
// quantity of Fig 4(b).
func BudgetFit(avgPowerW, budgetW float64) float64 {
	if budgetW <= 0 {
		return 0
	}
	return avgPowerW / budgetW
}

// OvershootEnergyWs integrates the budget violation over a power series:
// Σ max(0, power[i] − budget[i]) · dtSeconds, in watt·seconds. The series
// must be equal length; the shorter one bounds the sum.
func OvershootEnergyWs(powerW, budgetW []float64, dtSeconds float64) float64 {
	n := len(powerW)
	if len(budgetW) < n {
		n = len(budgetW)
	}
	var ws float64
	for i := 0; i < n; i++ {
		if over := powerW[i] - budgetW[i]; over > 0 {
			ws += over * dtSeconds
		}
	}
	return ws
}

// WorstSustainedOvershootWs returns the largest watt·seconds accumulated by
// any single contiguous run of over-budget intervals — the quantity a
// package's thermal/electrical margin must absorb before the manager
// corrects. Short excursions that dip back under budget reset the run.
func WorstSustainedOvershootWs(powerW, budgetW []float64, dtSeconds float64) float64 {
	n := len(powerW)
	if len(budgetW) < n {
		n = len(budgetW)
	}
	var worst, cur float64
	for i := 0; i < n; i++ {
		if over := powerW[i] - budgetW[i]; over > 0 {
			cur += over * dtSeconds
			if cur > worst {
				worst = cur
			}
		} else {
			cur = 0
		}
	}
	return worst
}

// JainFairness returns Jain's fairness index (Σx)² / (n·Σx²) over per-cohort
// allocations: 1.0 when every cohort receives an equal share, 1/n when one
// cohort receives everything. Non-finite or negative entries poison the
// index to 0 (an allocation vector with a NaN in it is not "fair"); an
// empty or all-zero vector returns 0.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return 0
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs by linear
// interpolation between closest ranks, without mutating xs. Non-finite
// entries are dropped first — a latency sample set polluted by NaNs must
// not poison the percentile of the valid samples. Returns NaN when no
// finite samples remain or p is outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if math.IsNaN(p) || p < 0 || p > 100 {
		return math.NaN()
	}
	return percentileSorted(finiteSorted(xs), p)
}

// finiteSorted returns a sorted copy of xs's finite entries.
func finiteSorted(xs []float64) []float64 {
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			clean = append(clean, x)
		}
	}
	sort.Float64s(clean)
	return clean
}

// percentileSorted is Percentile's interpolation over finiteSorted's output,
// for p already checked to lie in [0, 100].
func percentileSorted(clean []float64, p float64) float64 {
	if len(clean) == 0 {
		return math.NaN()
	}
	if len(clean) == 1 {
		return clean[0]
	}
	rank := p / 100 * float64(len(clean)-1)
	lo := int(rank)
	if lo >= len(clean)-1 {
		return clean[len(clean)-1]
	}
	frac := rank - float64(lo)
	return clean[lo] + frac*(clean[lo+1]-clean[lo])
}

// LatencyPercentiles is the p50/p95/p99 bundle the serving tier reports per
// SLO class.
type LatencyPercentiles struct {
	P50, P95, P99 float64
}

// SummarizeLatency computes the standard serving percentiles of xs: the
// values three Percentile calls return, from one filtered, sorted copy.
func SummarizeLatency(xs []float64) LatencyPercentiles {
	clean := finiteSorted(xs)
	return LatencyPercentiles{
		P50: percentileSorted(clean, 50),
		P95: percentileSorted(clean, 95),
		P99: percentileSorted(clean, 99),
	}
}

// Series summarizes a float series.
type Series struct {
	Min, Max, Mean, Std float64
	N                   int
}

// Summarize computes the summary of xs.
func Summarize(xs []float64) Series {
	s := Series{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var sum float64
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - s.Mean
		v += d * d
	}
	s.Std = math.Sqrt(v / float64(len(xs)))
	return s
}
