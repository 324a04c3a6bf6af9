package core

import (
	"testing"

	"gpm/internal/modes"
)

// TestMatricesIntoBitIdentical pins that the allocation-free MatricesInto
// path produces bit-identical matrices to the allocating Matrices, including
// across reuse with changing shapes and Done cores (reused rows must be
// re-zeroed, not inherited).
func TestMatricesIntoBitIdentical(t *testing.T) {
	pred := predictor()
	cur := modes.Vector{modes.Turbo, modes.Eff1, modes.Eff2, modes.Turbo}
	s := samples([]float64{20, 15, 9, 17}, []float64{1000, 850, 600, 910})
	s[2].Done = true

	var mx Matrices
	pred.MatricesInto(&mx, cur, s)
	want := pred.Matrices(cur, s)
	for c := range want.Power {
		for m := range want.Power[c] {
			if mx.Power[c][m] != want.Power[c][m] || mx.Instr[c][m] != want.Instr[c][m] {
				t.Fatalf("core %d mode %d: into (%v,%v) != alloc (%v,%v)",
					c, m, mx.Power[c][m], mx.Instr[c][m], want.Power[c][m], want.Instr[c][m])
			}
		}
	}

	// Reuse with a previously-Done core now live, and vice versa: no stale
	// zeros, no stale values.
	s[2].Done = false
	s[0].Done = true
	pred.MatricesInto(&mx, cur, s)
	want = pred.Matrices(cur, s)
	for c := range want.Power {
		for m := range want.Power[c] {
			if mx.Power[c][m] != want.Power[c][m] {
				t.Fatalf("reuse: core %d mode %d: %v != %v", c, m, mx.Power[c][m], want.Power[c][m])
			}
		}
	}
	if mx.Power[0][0] != 0 {
		t.Fatal("Done core's row not zeroed on reuse")
	}

	// Shape change reallocates cleanly.
	pred.MatricesInto(&mx, cur[:2], s[:2])
	if len(mx.Power) != 2 || len(mx.Instr) != 2 {
		t.Fatalf("shape change: got %d/%d rows", len(mx.Power), len(mx.Instr))
	}
}

// TestMatricesIntoNoAllocSteadyState pins the reuse path allocation-free.
func TestMatricesIntoNoAllocSteadyState(t *testing.T) {
	pred := predictor()
	cur := modes.Vector{modes.Turbo, modes.Eff1}
	s := samples([]float64{20, 15}, []float64{1000, 850})
	var mx Matrices
	pred.MatricesInto(&mx, cur, s)
	allocs := testing.AllocsPerRun(100, func() {
		pred.MatricesInto(&mx, cur, s)
	})
	if allocs != 0 {
		t.Fatalf("MatricesInto steady state allocates %.1f/op, want 0", allocs)
	}
}
