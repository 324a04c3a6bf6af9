package core

import (
	"math"
	"testing"

	"gpm/internal/modes"
	"gpm/internal/solver"
)

// tiedMatrices builds matrices where every core has *identical* rows, so
// every ΔBIPS/ΔPower upgrade ratio ties exactly.
func tiedMatrices(n int, p modes.Plan) Matrices {
	mx := Matrices{Power: make([][]float64, n), Instr: make([][]float64, n)}
	for c := 0; c < n; c++ {
		mx.Power[c] = make([]float64, p.NumModes())
		mx.Instr[c] = make([]float64, p.NumModes())
		for m := 0; m < p.NumModes(); m++ {
			mx.Power[c][m] = 20 * p.PowerScale(modes.Mode(m))
			mx.Instr[c][m] = 100_000 * p.FreqScale(modes.Mode(m))
		}
	}
	return mx
}

// TestGreedyTieBreaksToLowestCore is the regression lock for GreedyMaxBIPS's
// documented rule: equal ΔBIPS/ΔW ratios resolve to the lowest core index.
// With identical cores and room for exactly k upgrades, cores 0..k-1 must be
// the ones upgraded, in order.
func TestGreedyTieBreaksToLowestCore(t *testing.T) {
	p := plan()
	n := 4
	mx := tiedMatrices(n, p)
	deepest := modes.Mode(p.NumModes() - 1)
	// Budget: all cores at Eff2 plus exactly one full Eff2→Eff1 step of
	// headroom (plus dust), so one single-step upgrade fits.
	floor := float64(n) * mx.Power[0][deepest]
	step := mx.Power[0][deepest-1] - mx.Power[0][deepest]
	ctx := Context{
		Plan:     p,
		Current:  modes.Uniform(n, deepest),
		BudgetW:  floor + step + 1e-9,
		Matrices: mx,
	}
	got := GreedyMaxBIPS{}.Decide(ctx)
	want := modes.Uniform(n, deepest)
	want[0] = deepest - 1
	if !got.Equal(want) {
		t.Fatalf("tied upgrade went to %v, want lowest-core %v", got, want)
	}

	// Two steps of headroom: cores 0 then 1.
	ctx.BudgetW = floor + 2*step + 1e-9
	got = GreedyMaxBIPS{}.Decide(ctx)
	want[1] = deepest - 1
	if !got.Equal(want) {
		t.Fatalf("two tied upgrades went to %v, want %v", got, want)
	}
}

// exhaustive is the enumeration every MaxBIPS-family decision must match.
func exhaustive(p modes.Plan, budgetW float64, mx Matrices) modes.Vector {
	v, _ := solver.Exhaustive{}.Solve(solver.Instance{Plan: p, BudgetW: budgetW, Power: mx.Power, Instr: mx.Instr})
	return v
}

// copyMatrices deep-copies hand-edited matrices.
func copyMatrices(mx Matrices) Matrices {
	out := Matrices{Power: make([][]float64, len(mx.Power)), Instr: make([][]float64, len(mx.Instr))}
	for c := range mx.Power {
		out.Power[c] = append([]float64(nil), mx.Power[c]...)
		out.Instr[c] = append([]float64(nil), mx.Instr[c]...)
	}
	return out
}

// TestSolverPoliciesMatchExhaustiveKernel checks the wired policies against
// solver.Exhaustive: MaxBIPS, Oracle (with a Lookahead), StableMaxBIPS and
// MinPower's infeasible-floor fallback must return the enumeration's vector,
// both on contexts the BB path answers and on inputs the exhaustive kernel
// keeps (NaN power, negative throughput, infinite budgets, 20 cores, where
// the answer is the greedy vector). The exact solver-backed policies must
// also reproduce MaxBIPS decisions on contexts small enough for the kernel.
func TestSolverPoliciesMatchExhaustiveKernel(t *testing.T) {
	p := plan()
	pred := predictor()
	powers := []float64{19, 23, 17, 25, 21, 18}
	instrs := []float64{80_000, 120_000, 60_000, 140_000, 90_000, 75_000}
	cur := modes.Uniform(len(powers), modes.Turbo)
	mx := pred.Matrices(cur, samples(powers, instrs))
	var turbo float64
	for c := range powers {
		turbo += mx.Power[c][0]
	}

	type decision struct {
		name   string
		budget float64
		mx     Matrices
	}
	var decisions []decision
	for _, frac := range []float64{0.45, 0.62, 0.75, 0.9, 1.1} {
		decisions = append(decisions, decision{"predicted", frac * turbo, mx})
	}
	done := copyMatrices(mx) // finished cores predict zero in every mode
	for m := range done.Power[2] {
		done.Power[2][m], done.Instr[2][m] = 0, 0
	}
	decisions = append(decisions, decision{"finished-core", 0.7 * turbo, done})
	nan := copyMatrices(mx) // TestExhaustiveNaNPowerStaysEligible's poisoning
	nan.Power[1][0] = math.NaN()
	nan.Instr[1][0] = 1e9
	decisions = append(decisions, decision{"nan-power", 0.7 * turbo, nan})
	neg := copyMatrices(mx)
	neg.Instr[3][1] = -50_000
	decisions = append(decisions, decision{"negative-instr", 0.7 * turbo, neg})
	decisions = append(decisions, decision{"inf-budget", math.Inf(1), mx}, decision{"-inf-budget", math.Inf(-1), mx})

	for _, d := range decisions {
		want := exhaustive(p, d.budget, d.mx)
		ctx := Context{Plan: p, Current: cur, BudgetW: d.budget, Matrices: d.mx}
		// A throughput floor of twice all-Turbo is infeasible: MinPower falls
		// back to the MaxBIPS decision.
		pols := []Policy{MaxBIPS{}, MinPower{TargetFrac: 2}}
		if d.mx.VectorPower(cur) > d.budget {
			// An over-budget current vector forces StableMaxBIPS to move.
			pols = append(pols, StableMaxBIPS{})
		}
		for _, pol := range pols {
			got := pol.Decide(ctx)
			if !got.Equal(want) {
				t.Fatalf("%s %s at %g W: %v, want the exhaustive kernel's %v", pol.Name(), d.name, d.budget, got, want)
			}
		}
	}

	// Oracle: its matrices are the Lookahead's values, derated by the §5.5
	// transition factor wherever a mode differs from the current one; a
	// finished core's rows stay zero.
	look := func(c int, m modes.Mode) (float64, float64) {
		return powers[c] * p.PowerScale(m) * (1 + 0.01*float64(c)), instrs[c] * p.FreqScale(m) * (1 - 0.02*float64(c))
	}
	ocur := modes.Vector{0, 1, 2, 0, 1, 2}
	osamples := samples(powers, instrs)
	osamples[4].Done = true
	oracleMx := Matrices{Power: make([][]float64, len(powers)), Instr: make([][]float64, len(powers))}
	for c := range powers {
		oracleMx.Power[c] = make([]float64, p.NumModes())
		oracleMx.Instr[c] = make([]float64, p.NumModes())
		for m := 0; m < p.NumModes() && !osamples[c].Done; m++ {
			pw, in := look(c, modes.Mode(m))
			if modes.Mode(m) != ocur[c] {
				tr := p.TransitionTime(ocur[c], modes.Mode(m)).Seconds()
				in *= pred.ExploreSeconds / (pred.ExploreSeconds + tr)
			}
			oracleMx.Power[c][m], oracleMx.Instr[c][m] = pw, in
		}
	}
	for _, frac := range []float64{0.5, 0.7, 0.9} {
		ctx := Context{Plan: p, Current: ocur, BudgetW: frac * turbo, Samples: osamples, Matrices: mx,
			Lookahead: look, ExploreSeconds: pred.ExploreSeconds}
		if got, want := (Oracle{}).Decide(ctx), exhaustive(p, ctx.BudgetW, oracleMx); !got.Equal(want) {
			t.Fatalf("Oracle at %.0f%%: %v, want the exhaustive kernel's %v", frac*100, got, want)
		}
	}

	// Past the enumerable width the kernel, and so MaxBIPS, is greedy.
	wide := make([]float64, 20)
	wideI := make([]float64, 20)
	for c := range wide {
		wide[c] = 15 + float64(c%7)
		wideI[c] = 50_000 + 7_000*float64(c%5)
	}
	wcur := modes.Uniform(20, modes.Turbo)
	wmx := pred.Matrices(wcur, samples(wide, wideI))
	wctx := Context{Plan: p, Current: wcur, BudgetW: 0.7 * wmx.VectorPower(wcur), Matrices: wmx}
	greedy := GreedyMaxBIPS{}.Decide(wctx)
	if got := (MaxBIPS{}).Decide(wctx); !got.Equal(greedy) || !got.Equal(exhaustive(p, wctx.BudgetW, wmx)) {
		t.Fatalf("20-core MaxBIPS: %v, want the greedy vector %v", got, greedy)
	}

	for _, frac := range []float64{0.62, 0.75, 0.9} {
		ctx := Context{Plan: p, Current: cur, BudgetW: frac * turbo, Matrices: mx}
		want := MaxBIPS{}.Decide(ctx)
		bb, err := Registry("maxbips-bb")
		if err != nil {
			t.Fatal(err)
		}
		if got := bb.Decide(ctx); !got.Equal(want) {
			t.Fatalf("maxbips-bb at %.0f%%: %v, want kernel's %v", frac*100, got, want)
		}
		// Hier is approximate but must stay feasible and close.
		hier, err := Registry("maxbips-hier")
		if err != nil {
			t.Fatal(err)
		}
		got := hier.Decide(ctx)
		if pw := mx.VectorPower(got); pw > ctx.BudgetW+1e-9 {
			t.Fatalf("maxbips-hier at %.0f%%: over budget", frac*100)
		}
		if gotT, wantT := mx.VectorInstr(got), mx.VectorInstr(want); gotT < 0.99*wantT {
			t.Fatalf("maxbips-hier at %.0f%%: quality %.4f below 99%%", frac*100, gotT/wantT)
		}
	}
}

// FuzzEnumerateVectors pins the enumeration contract: modes^cores callbacks,
// lexicographic order, and early-stop.
func FuzzEnumerateVectors(f *testing.F) {
	f.Add(uint8(3), uint8(4))
	f.Add(uint8(2), uint8(10))
	f.Add(uint8(5), uint8(1))
	f.Add(uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, numModes, n uint8) {
		m := int(numModes%6) + 1 // 1..6 modes
		c := int(n % 8)          // 0..7 cores
		want := int64(math.Pow(float64(m), float64(c)))
		var count int64
		prev := modes.Vector(nil)
		EnumerateVectors(m, c, func(v modes.Vector) bool {
			count++
			if len(v) != c {
				t.Fatalf("vector width %d, want %d", len(v), c)
			}
			for _, mo := range v {
				if int(mo) < 0 || int(mo) >= m {
					t.Fatalf("mode %d out of range [0,%d)", mo, m)
				}
			}
			if prev != nil && !lexLess(prev, v) {
				t.Fatalf("enumeration not strictly lexicographic: %v then %v", prev, v)
			}
			prev = v.Clone()
			return true
		})
		if count != want {
			t.Fatalf("enumerated %d vectors, want %d^%d = %d", count, m, c, want)
		}
		// Early-stop: returning false must halt immediately.
		var stopped int64
		EnumerateVectors(m, c, func(modes.Vector) bool {
			stopped++
			return stopped < 3
		})
		if limit := min(want, 3); stopped != limit {
			t.Fatalf("early stop visited %d vectors, want %d", stopped, limit)
		}
	})
}

func lexLess(a, b modes.Vector) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
