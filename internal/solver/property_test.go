package solver

import (
	"math"
	"testing"

	"gpm/internal/modes"
)

// TestSolverOrderingProperty drives all solvers over seeded random Power/BIPS
// matrices and asserts the quality ordering the subsystem promises:
//
//	exhaustive == branch-and-bound ≥ greedy
//
// together with budget feasibility of every returned vector.
func TestSolverOrderingProperty(t *testing.T) {
	plans := []modes.Plan{plan3(), modes.Linear(4, 0.75, 1.300, 0.010)}
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for pi, plan := range plans {
		for seed := 0; seed < seeds; seed++ {
			n := 2 + seed%6 // 2..7 cores keeps exhaustive instant
			frac := 0.45 + 0.55*float64(seed%11)/10
			in := randInstance(int64(pi*1000+seed), n, plan, frac)

			exV, exSt := Exhaustive{}.Solve(in)
			bbV, bbSt := (&BB{}).Solve(in)
			lexV, _ := (&BB{LexTies: true}).Solve(in)
			grV, _ := Greedy{}.Solve(in)

			feasible := in.VectorPower(in.deepestVector()) <= in.BudgetW
			check := func(name string, v modes.Vector) float64 {
				if feasible {
					if p := in.VectorPower(v); p > in.BudgetW+in.budgetEps() {
						t.Fatalf("plan=%d seed=%d: %s over budget (%g > %g)", pi, seed, name, p, in.BudgetW)
					}
				}
				return in.VectorInstr(v)
			}
			exT := check("exhaustive", exV)
			bbT := check("bb", bbV)
			check("bb-lex", lexV)
			grT := check("greedy", grV)

			tol := 1e-9 * (1 + exT)
			if math.Abs(bbT-exT) > tol {
				t.Fatalf("plan=%d seed=%d n=%d: bb %g != exhaustive %g", pi, seed, n, bbT, exT)
			}
			if !lexV.Equal(exV) {
				t.Fatalf("plan=%d seed=%d n=%d: lex-ties bb %v != exhaustive %v", pi, seed, n, lexV, exV)
			}
			if grT > exT+tol {
				t.Fatalf("plan=%d seed=%d: greedy %g beats exhaustive %g", pi, seed, grT, exT)
			}
			if !exSt.Exact || !bbSt.Exact {
				t.Fatalf("plan=%d seed=%d: exact solvers not flagged exact", pi, seed)
			}
		}
	}
}

// TestHierQualityProperty separately checks the decomposition heuristic at
// every cluster size from 2 to 5: it must stay feasible (or return the
// all-deepest floor when even that exceeds the budget) and never fall below
// the greedy floor it budgets with.
func TestHierQualityProperty(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		n := 8 + (seed%3)*4
		in := randInstance(int64(seed+500), n, plan3(), 0.5+0.05*float64(seed%10))
		grV, _ := Greedy{}.Solve(in)
		for k := 2; k <= 5; k++ {
			hV, _ := (&Hier{ClusterSize: k}).Solve(in)
			if in.VectorPower(in.deepestVector()) <= in.BudgetW {
				if p := in.VectorPower(hV); p > in.BudgetW+in.budgetEps() {
					t.Fatalf("seed=%d k=%d: hier over budget", seed, k)
				}
			} else if !hV.Equal(in.deepestVector()) {
				t.Fatalf("seed=%d k=%d: infeasible floor but hier returned %v", seed, k, hV)
			}
			if h, g := in.VectorInstr(hV), in.VectorInstr(grV); h < g-1e-9*(1+g) {
				t.Fatalf("seed=%d k=%d: hier %g below greedy floor %g", seed, k, h, g)
			}
		}
	}
}
