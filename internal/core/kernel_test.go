package core

import (
	"math"
	"testing"

	"gpm/internal/modes"
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

// TestSolverPoliciesMatchExhaustiveKernel checks the wired policies: the
// exact solver-backed policies must reproduce MaxBIPS decisions on contexts
// small enough for the kernel.
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
