// Package gpm_test holds the benchmark harness: one testing.B benchmark per
// paper table/figure (see DESIGN.md's per-experiment index) plus the
// ablations. Each benchmark regenerates its artifact end-to-end on a
// reduced horizon and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both times the reproduction pipeline and prints the reproduced numbers.
package gpm_test

import (
	"sync"
	"testing"
	"time"

	"gpm/internal/core"
	"gpm/internal/experiment"
	"gpm/internal/modes"
	"gpm/internal/solver"
	"gpm/internal/workload"
)

var (
	benchOnce sync.Once
	benchEnv  *experiment.Env
)

// env returns a shared environment with a bench-friendly horizon and grid.
// Characterization cost is paid once across all benchmarks.
func env(b *testing.B) *experiment.Env {
	b.Helper()
	benchOnce.Do(func() {
		e := experiment.NewEnv(4).ShortHorizon(10 * time.Millisecond)
		e.Budgets = []float64{0.65, 0.80, 0.95}
		benchEnv = e
	})
	return benchEnv
}

func BenchmarkTable4(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows := experiment.Table4(e.Plan)
		if len(rows) != 3 {
			b.Fatal("table 4 rows")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows := experiment.Table5(e.Plan)
		if len(rows) != 3 {
			b.Fatal("table 5 rows")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	e := env(b)
	var deg float64
	for i := 0; i < b.N; i++ {
		rows, err := e.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Benchmark == "overall" && r.Mode == "Eff2" {
				deg = r.PerfDegradation
			}
		}
	}
	b.ReportMetric(deg*100, "overall-eff2-deg-%")
}

func BenchmarkFigure3(b *testing.B) {
	e := env(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		series, err := e.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, s := range series {
			if s.Policy == "ChipWideDVFS" && s.Degradation > worst {
				worst = s.Degradation
			}
		}
	}
	b.ReportMetric(worst*100, "chipwide-worst-deg-%")
}

func BenchmarkFigure4(b *testing.B) {
	e := env(b)
	var mb float64
	for i := 0; i < b.N; i++ {
		f4, err := e.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range f4.Curves {
			if c.Policy == "MaxBIPS" {
				mb = c.Degradation[0]
			}
		}
	}
	b.ReportMetric(mb*100, "maxbips-65%budget-deg-%")
}

func BenchmarkFigure5(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	e := env(b)
	var after float64
	for i := 0; i < b.N; i++ {
		f6, err := e.Figure6(5 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		after = f6.AvgBIPSAfter
	}
	b.ReportMetric(after*100, "bips-at-70%budget-%")
}

func BenchmarkFigure7(b *testing.B) {
	e := env(b)
	var gap float64
	for i := 0; i < b.N; i++ {
		f7, err := e.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		var mb, or []float64
		for _, c := range f7.Curves {
			switch c.Policy {
			case "MaxBIPS":
				mb = c.Degradation
			case "Oracle":
				or = c.Degradation
			}
		}
		gap = 0
		for j := range mb {
			if d := mb[j] - or[j]; d > gap {
				gap = d
			}
		}
	}
	b.ReportMetric(gap*100, "maxbips-vs-oracle-gap-%")
}

func benchScaling(b *testing.B, n int) {
	e := env(b)
	var worstGap float64
	for i := 0; i < b.N; i++ {
		sc, err := e.FigureScaling(n)
		if err != nil {
			b.Fatal(err)
		}
		worstGap = 0
		for _, combo := range sc.Combos {
			var mb, or []float64
			for _, c := range combo.Curves {
				switch c.Policy {
				case "MaxBIPS":
					mb = c.Degradation
				case "Oracle":
					or = c.Degradation
				}
			}
			for j := range mb {
				if d := mb[j] - or[j]; d > worstGap {
					worstGap = d
				}
			}
		}
	}
	b.ReportMetric(worstGap*100, "maxbips-vs-oracle-gap-%")
}

func BenchmarkFigure8(b *testing.B)  { benchScaling(b, 2) }
func BenchmarkFigure9(b *testing.B)  { benchScaling(b, 4) }
func BenchmarkFigure10(b *testing.B) { benchScaling(b, 8) }

func BenchmarkFigure11(b *testing.B) {
	e := env(b)
	var mbGap float64
	for i := 0; i < b.N; i++ {
		rows, err := e.Figure11([]int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		mbGap = rows[len(rows)-1].MaxBIPS
	}
	b.ReportMetric(mbGap*100, "maxbips-over-oracle-4core-%")
}

func BenchmarkValidation(b *testing.B) {
	e := env(b)
	var ipcDrop float64
	for i := 0; i < b.N; i++ {
		v, err := e.Validation(workload.FourWay[0], 1_000_000, 10_000)
		if err != nil {
			b.Fatal(err)
		}
		ipcDrop = v.MeanIPCDrop
	}
	b.ReportMetric(ipcDrop*100, "cmp-ipc-drop-%")
}

func BenchmarkAblationModeCount(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationModeCount([]int{3, 5}, 0.80); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationExploreInterval(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationExploreInterval([]time.Duration{250 * time.Microsecond, 500 * time.Microsecond, time.Millisecond}, 0.80); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScaling(b *testing.B) {
	e := env(b)
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := e.AblationScaleOut([]int{4, 16, 64}, 0.80)
		if err != nil {
			b.Fatal(err)
		}
		gap = rows[0].GreedyDegradation - rows[0].ExhaustiveDegradation
	}
	b.ReportMetric(gap*100, "greedy-vs-exhaustive-4core-%")
}

func BenchmarkAblationTransitionRate(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationTransitionRate([]float64{0.005, 0.010, 0.020}, 0.80); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinPower(b *testing.B) {
	e := env(b)
	var save float64
	for i := 0; i < b.N; i++ {
		rows, err := e.AblationMinPower([]float64{0.95})
		if err != nil {
			b.Fatal(err)
		}
		save = rows[0].PowerSaving
	}
	b.ReportMetric(save*100, "saving-at-95%floor-%")
}

// decisionContext builds a synthetic decision context for n cores.
func decisionContext(e *experiment.Env, n int) core.Context {
	samples := make([]core.Sample, n)
	for i := range samples {
		samples[i] = core.Sample{PowerW: 18 + float64(i%5), Instr: 50_000 + float64(i)*3000}
	}
	pred := e.Predictor()
	current := modes.Uniform(n, modes.Turbo)
	return core.Context{
		Plan:           e.Plan,
		Current:        current,
		BudgetW:        0.8 * 22 * float64(n),
		Samples:        samples,
		Matrices:       pred.Matrices(current, samples),
		ExploreSeconds: pred.ExploreSeconds,
	}
}

// BenchmarkDecisionMaxBIPS isolates the manager's per-explore decision cost
// at 8 cores: the exact MaxBIPS answer over 3^8 = 6561 combinations, which
// the policy finds by branch-and-bound instead of enumerating them — the
// quantity a hardware microcontroller implementation would care about.
// `make bench-check` holds it to a fraction of BenchmarkDecisionExhaustive
// from the same run.
func BenchmarkDecisionMaxBIPS(b *testing.B) {
	ctx := decisionContext(env(b), 8)
	pol := core.MaxBIPS{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Decide(ctx)
	}
}

// BenchmarkDecisionExhaustive enumerates the decision BenchmarkDecisionMaxBIPS
// makes, all 3^8 vectors of the same 8-core context: what MaxBIPS would cost
// if it reverted to enumeration, and the reference `make bench-check`
// measures it against.
func BenchmarkDecisionExhaustive(b *testing.B) {
	ctx := decisionContext(env(b), 8)
	pol := core.SolverPolicy{Solver: solver.Exhaustive{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Decide(ctx)
	}
}

// BenchmarkDecisionGreedy measures the greedy selector at 64 cores, where
// exhaustive enumeration (3^64) is impossible.
func BenchmarkDecisionGreedy(b *testing.B) {
	ctx := decisionContext(env(b), 64)
	pol := core.GreedyMaxBIPS{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Decide(ctx)
	}
}
