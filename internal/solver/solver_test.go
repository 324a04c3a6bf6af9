package solver

import (
	"math"
	"math/rand"
	"testing"

	"gpm/internal/modes"
)

func plan3() modes.Plan { return modes.Default(1.300, 0.010) }

// randInstance builds a deterministic pseudo-random instance: per-core Turbo
// (power, instr) draws scaled through the plan's laws with multiplicative
// noise, so matrices are realistic but not perfectly monotone — solvers must
// not assume monotonicity.
func randInstance(seed int64, n int, plan modes.Plan, budgetFrac float64) Instance {
	rng := rand.New(rand.NewSource(seed))
	m := plan.NumModes()
	in := Instance{Plan: plan, Power: make([][]float64, n), Instr: make([][]float64, n)}
	for c := 0; c < n; c++ {
		p0 := 10 + 20*rng.Float64()
		i0 := 1e4 + 2e5*rng.Float64()
		in.Power[c] = make([]float64, m)
		in.Instr[c] = make([]float64, m)
		for mo := 0; mo < m; mo++ {
			in.Power[c][mo] = p0 * plan.PowerScale(modes.Mode(mo)) * (0.97 + 0.06*rng.Float64())
			in.Instr[c][mo] = i0 * plan.FreqScale(modes.Mode(mo)) * (0.97 + 0.06*rng.Float64())
		}
	}
	var turbo float64
	for c := 0; c < n; c++ {
		turbo += in.Power[c][0]
	}
	in.BudgetW = budgetFrac * turbo
	return in
}

// replicatedInstance repeats one core's matrices n times — the worst case
// for tie-breaking, since every permutation of an assignment scores equally.
func replicatedInstance(n int, plan modes.Plan, budgetFrac float64) Instance {
	base := randInstance(42, 1, plan, 1)
	in := Instance{Plan: plan, Power: make([][]float64, n), Instr: make([][]float64, n)}
	var turbo float64
	for c := 0; c < n; c++ {
		in.Power[c] = base.Power[0]
		in.Instr[c] = base.Instr[0]
		turbo += base.Power[0][0]
	}
	in.BudgetW = budgetFrac * turbo
	return in
}

// referenceSolve is an independent re-implementation of the exhaustive
// kernel (lexicographic odometer + strict improvement, full canonical-order
// sums per vector), kept deliberately simple to cross-check the kernel's
// partial-sum enumeration.
func referenceSolve(in Instance) modes.Vector {
	n, m := in.NumCores(), in.NumModes()
	best := in.deepestVector()
	bestT, bestP := -1.0, 0.0
	v := make(modes.Vector, n)
	for {
		p := in.VectorPower(v)
		if p <= in.BudgetW {
			t := in.VectorInstr(v)
			if t > bestT || (t == bestT && p < bestP) {
				bestT, bestP = t, p
				copy(best, v)
			}
		}
		c := n - 1
		for c >= 0 {
			v[c]++
			if int(v[c]) < m {
				break
			}
			v[c] = 0
			c--
		}
		if c < 0 {
			return best
		}
	}
}

func TestExhaustiveShardingMatchesSequentialReference(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		for _, frac := range []float64{0.55, 0.8, 1.0} {
			in := randInstance(int64(n)*100+int64(frac*100), n, plan3(), frac)
			want := referenceSolve(in)
			got, st := Exhaustive{}.Solve(in)
			if !got.Equal(want) {
				t.Fatalf("n=%d frac=%.2f: exhaustive %v != reference %v", n, frac, got, want)
			}
			if !st.Exact {
				t.Fatalf("exhaustive not exact")
			}
			wantNodes := int64(math.Pow(float64(in.NumModes()), float64(n)))
			if st.Nodes != wantNodes {
				t.Fatalf("n=%d: visited %d vectors, want %d", n, st.Nodes, wantNodes)
			}
		}
	}
}

// TestExhaustiveNaNPowerStaysEligible pins MaxBIPS's acceptance rule: a
// vector is skipped only when its power exceeds the budget, so a NaN power
// entry (poisoned telemetry) does not disqualify it on its own.
func TestExhaustiveNaNPowerStaysEligible(t *testing.T) {
	in := randInstance(5, 3, plan3(), 0.8)
	in.Power[1][0] = math.NaN()
	in.Instr[1][0] = 1e9 // dominates every other throughput
	v, _ := Exhaustive{}.Solve(in)
	if want := (modes.Vector{0, 0, 0}); !v.Equal(want) {
		t.Fatalf("got %v, want %v: the NaN-power vectors were skipped", v, want)
	}
}

func TestExhaustiveIntractableFallsBackToGreedy(t *testing.T) {
	in := randInstance(7, 64, plan3(), 0.8)
	v, st := Exhaustive{}.Solve(in)
	if st.Exact {
		t.Fatal("64-core exhaustive should not claim exactness")
	}
	gv, _, _ := greedySolve(in, nil, nil)
	if !v.Equal(gv) {
		t.Fatal("intractable fallback should be the greedy vector")
	}
}

// TestBBLexTiesBitIdenticalToExhaustive is the exactness behind MaxBIPS's
// BB path: on finite instances with non-negative throughput, LexTies BB must
// return the reference kernel's vector. Besides random instances it covers
// finished cores (all-zero throughput rows, idle or zero power) and budgets
// set exactly to some vector's canonical power, where the leaf test
// p > budget decides.
func TestBBLexTiesBitIdenticalToExhaustive(t *testing.T) {
	plans := []modes.Plan{plan3(), modes.Linear(5, 0.70, 1.300, 0.010)}
	widths := [][]int{{1, 2, 4, 7, 8, 9}, {1, 2, 4, 7}} // 5^8 vectors per reference solve is too slow
	for pi, plan := range plans {
		for _, n := range widths[pi] {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed*31 + int64(n)))
				for _, frac := range []float64{0.5, 0.65, 0.8, 0.95} {
					in := randInstance(seed*7+int64(pi)+int64(100*n), n, plan, frac)
					name := "random"
					switch seed % 4 {
					case 1: // finished cores predict zero throughput
						name = "zero-instr"
						for c := 0; c < n; c += 2 {
							for m := range in.Instr[c] {
								in.Instr[c][m] = 0
								if seed%8 == 1 {
									in.Power[c][m] = 0
								}
							}
						}
					case 2: // budget exactly at a random vector's power
						name = "exact-budget"
						u := make(modes.Vector, n)
						for c := range u {
							u[c] = modes.Mode(rng.Intn(in.NumModes()))
						}
						in.BudgetW = in.VectorPower(u)
					}
					want := referenceSolve(in)
					got, st := (&BB{LexTies: true}).Solve(in)
					if !got.Equal(want) {
						t.Fatalf("plan=%d n=%d seed=%d frac=%.2f %s: bb %v != exhaustive %v", pi, n, seed, frac, name, got, want)
					}
					if !st.Exact {
						t.Fatal("bb not exact")
					}
				}
			}
		}
	}
}

func TestBBSymmetricTiesStayLexicographic(t *testing.T) {
	// Replicated cores make every permutation tie; LexTies must still pick
	// exactly the exhaustive kernel's representative.
	for _, frac := range []float64{0.6, 0.75, 0.9} {
		in := replicatedInstance(6, plan3(), frac)
		want := referenceSolve(in)
		got, _ := (&BB{LexTies: true}).Solve(in)
		if !got.Equal(want) {
			t.Fatalf("frac=%.2f: bb %v != exhaustive %v on symmetric instance", frac, got, want)
		}
		// Default mode must still match the optimal value.
		def, _ := (&BB{}).Solve(in)
		if it, wt := in.VectorInstr(def), in.VectorInstr(want); math.Abs(it-wt) > 1e-9*wt {
			t.Fatalf("frac=%.2f: default bb instr %g != optimum %g", frac, it, wt)
		}
	}
}

func TestBBNodeLimitReturnsFeasibleIncumbent(t *testing.T) {
	in := randInstance(3, 24, plan3(), 0.8)
	bb := &BB{NodeLimit: 10}
	v, st := bb.Solve(in)
	if st.Exact {
		t.Fatal("node-limited bb must not claim exactness")
	}
	if p := in.VectorPower(v); p > in.BudgetW {
		t.Fatalf("node-limited bb returned infeasible vector: %g > %g", p, in.BudgetW)
	}
	gv, _, _ := greedySolve(in, nil, nil)
	if in.VectorInstr(v) < in.VectorInstr(gv) {
		t.Fatal("node-limited bb fell below its greedy seed")
	}
}

func TestHierFeasibleDeterministicAndNearOptimal(t *testing.T) {
	// Random 12-core instances (three full clusters of 4), random 6-core
	// instances (a ragged split into clusters of 4 and 2), and a uniform
	// 8-core instance where every cluster's demand is equal.
	var cases []Instance
	for seed := int64(0); seed < 6; seed++ {
		cases = append(cases, randInstance(seed+50, 12, plan3(), 0.8))
		cases = append(cases, randInstance(seed+70, 6, plan3(), 0.7+0.05*float64(seed)))
	}
	cases = append(cases, replicatedInstance(8, plan3(), 0.75))
	for i, in := range cases {
		opt := referenceSolve(in) // 3^12 ≈ 531k, fine
		optT := in.VectorInstr(opt)
		h := &Hier{ClusterSize: 4}
		v1, _ := h.Solve(in)
		v2, _ := h.Solve(in)
		if len(v1) != in.NumCores() {
			t.Fatalf("case %d: hier returned %d modes for %d cores", i, len(v1), in.NumCores())
		}
		if !v1.Equal(v2) {
			t.Fatalf("case %d: stateless hier not deterministic", i)
		}
		if p := in.VectorPower(v1); p > in.BudgetW+in.budgetEps() {
			t.Fatalf("case %d: hier infeasible: %g > %g", i, p, in.BudgetW)
		}
		if got := in.VectorInstr(v1); got < 0.95*optT {
			t.Fatalf("case %d: hier quality %.4f below 95%%", i, got/optT)
		}
	}
}

func TestHierStatefulRebalancing(t *testing.T) {
	// Alpha share smoothing lives in the session (a bare Hier is stateless).
	h := &Hier{ClusterSize: 4, Alpha: 0.5}
	ses := NewSession(h)
	defer ses.Close()
	in := randInstance(9, 16, plan3(), 0.8)
	var hint Hint
	for i := 0; i < 3; i++ {
		v, _ := ses.Solve(in, hint)
		if p := in.VectorPower(v); p > in.BudgetW+in.budgetEps() {
			t.Fatalf("call %d: stateful hier infeasible", i)
		}
		hint = Hint{Vector: v.Clone(), Instr: in.VectorInstr(v)}
	}
	// Steady state: repeated identical instances converge to a fixed point.
	v1, _ := ses.Solve(in, hint)
	v1 = v1.Clone()
	v2, _ := ses.Solve(in, hint)
	if !v1.Equal(v2) {
		t.Fatal("stateful hier did not converge on a constant instance")
	}
	// And a bare Hier with Alpha set stays deterministic call to call.
	b1, _ := h.Solve(in)
	b2, _ := h.Solve(in)
	if !b1.Equal(b2) {
		t.Fatal("bare hier with Alpha not stateless")
	}
}

func TestInfeasibleBudgetReturnsAllDeepest(t *testing.T) {
	in := randInstance(1, 5, plan3(), 0.8)
	in.BudgetW = 0.1 // below even the all-deepest floor
	want := in.deepestVector()
	for _, name := range Names() {
		s, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := s.Solve(in)
		if !v.Equal(want) {
			t.Fatalf("%s: infeasible instance returned %v, want all-deepest", name, v)
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, Options{ClusterSize: 4, NodeLimit: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := New("nope", Options{}); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

// TestBB64CoresUnder10ms pins the exact solver at scale: a 64-core, 3-mode
// instance is decided exactly and feasibly. Its 10 ms latency bound is
// timed by `make bench-check` on BenchmarkSolver/bb/cores=64 (the same
// instance), so wall-clock speed never decides this test's outcome.
func TestBB64CoresUnder10ms(t *testing.T) {
	in := randInstance(64, 64, plan3(), 0.8)
	v, st := (&BB{}).Solve(in)
	if !st.Exact {
		t.Fatal("bb inexact at 64 cores")
	}
	if p := in.VectorPower(v); p > in.BudgetW {
		t.Fatal("bb infeasible at 64 cores")
	}
}
