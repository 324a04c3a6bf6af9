package solver

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gpm/internal/modes"
)

// dupPointInstance is randInstance with value-identical (power, instr)
// points inside cores, equal-power points of different throughput, and
// whole rows repeated across cores: the ties the fast sorts must order
// exactly like the stable ones.
func dupPointInstance(seed int64, n int, plan modes.Plan) Instance {
	in := randInstance(seed, n, plan, 0.8)
	rng := rand.New(rand.NewSource(seed))
	m := plan.NumModes()
	for c := 0; c < n; c++ {
		a, b := rng.Intn(m), rng.Intn(m)
		switch rng.Intn(4) {
		case 0: // duplicate point
			in.Power[c][b], in.Instr[c][b] = in.Power[c][a], in.Instr[c][a]
		case 1: // equal power, different throughput
			in.Power[c][b] = in.Power[c][a]
		case 2: // a repeat of an earlier core's rows
			if c > 0 {
				src := rng.Intn(c)
				in.Power[c] = append([]float64(nil), in.Power[src]...)
				in.Instr[c] = append([]float64(nil), in.Instr[src]...)
			}
		}
	}
	return in
}

func floatsBitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFrontierFastSortsBitIdentical pins the fast sorts against the stable
// sorts: on finite instances build(in, true) must give bit-identical base
// and suffix aggregates and the same segment order as build(in, false).
// Cold BB on finite instances and every session rely on it.
func TestFrontierFastSortsBitIdentical(t *testing.T) {
	plans := []modes.Plan{plan3(), modes.Linear(5, 0.70, 1.300, 0.010)}
	var fast frontier // reused across instances, as a pooled or session frontier is
	for pi, plan := range plans {
		for _, n := range []int{1, 2, 3, 5, 8, 13, 32, 64} {
			cases := map[string]Instance{
				"random":     randInstance(int64(100*pi+n), n, plan, 0.8),
				"replicated": replicatedInstance(n, plan, 0.8),
				"dup-points": dupPointInstance(int64(200*pi+n), n, plan),
			}
			for name, in := range cases {
				slow := &frontier{}
				slow.build(&in, false)
				fast.build(&in, true)
				for _, arr := range []struct {
					what       string
					slow, fast []float64
				}{
					{"baseP", slow.baseP, fast.baseP},
					{"baseI", slow.baseI, fast.baseI},
					{"sufP", slow.sufP, fast.sufP},
					{"sufI", slow.sufI, fast.sufI},
				} {
					if !floatsBitIdentical(arr.slow, arr.fast) {
						t.Fatalf("plan %d %s n=%d: %s fast %v != stable %v", pi, name, n, arr.what, arr.fast, arr.slow)
					}
				}
				if len(slow.segs) != len(fast.segs) {
					t.Fatalf("plan %d %s n=%d: %d fast segments, %d stable", pi, name, n, len(fast.segs), len(slow.segs))
				}
				for i, s := range slow.segs {
					f := fast.segs[i]
					if s.core != f.core || math.Float64bits(s.dP) != math.Float64bits(f.dP) ||
						math.Float64bits(s.dI) != math.Float64bits(f.dI) ||
						math.Float64bits(s.ratio) != math.Float64bits(f.ratio) {
						t.Fatalf("plan %d %s n=%d: segment %d fast %+v != stable %+v", pi, name, n, i, f, s)
					}
				}
			}
		}
	}
}

// TestColdBBScratchConcurrent pins that cold solves borrowing scratch from
// the free list never hand out memory another solve can overwrite: goroutines
// solve different instances at once through cold BB, MaxBIPS, Greedy,
// GreedyInto and a non-enumerable Exhaustive (its greedy fallback), keep
// every returned vector, and re-check all of them against the reference
// kernels (the enumeration, the greedy scan) after each later solve and once
// every goroutine has finished. CI runs it under -race -count=10.
func TestColdBBScratchConcurrent(t *testing.T) {
	const workers, rounds = 4, 12
	type kept struct {
		in   Instance
		want modes.Vector
		got  []modes.Vector
	}
	results := make([][]kept, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []kept
			for r := 0; r < rounds; r++ {
				n := 2 + (w+r/2)%7 // two instances per width: pooled buffers get reused
				in := randInstance(int64(1000*w+r), n, plan3(), 0.6+0.03*float64(r))
				k := kept{in: in, want: referenceSolve(in)}
				lex, _ := (&BB{LexTies: true}).Solve(in)
				mb, _ := MaxBIPS(nil, in)
				def, _ := (&BB{}).Solve(in)
				if wt, dt := in.VectorInstr(k.want), in.VectorInstr(def); math.Abs(wt-dt) > 1e-9*(1+wt) {
					t.Errorf("worker %d round %d: default bb %v scores %g, the optimum %g", w, r, def, dt, wt)
				}
				k.got = []modes.Vector{lex, mb}
				g := kept{in: in}
				g.want, _, _ = greedySolve(in, nil, nil)
				gs, _ := Greedy{}.Solve(in)
				g.got = []modes.Vector{gs, GreedyInto(nil, in)}
				wide := randInstance(int64(1000*w+r+500), 20, plan3(), 0.6+0.03*float64(r))
				x := kept{in: wide}
				x.want, _, _ = greedySolve(wide, nil, nil)
				xs, _ := Exhaustive{}.Solve(wide)
				x.got = []modes.Vector{xs}
				mine = append(mine, k, g, x)
				for i, e := range mine {
					for _, v := range e.got {
						if !v.Equal(e.want) {
							t.Errorf("worker %d round %d: kept vector %d changed to %v, want %v", w, r, i, v, e.want)
						}
					}
				}
			}
			results[w] = mine
		}(w)
	}
	wg.Wait()
	for w, mine := range results {
		for i, e := range mine {
			for _, v := range e.got {
				if !v.Equal(e.want) {
					t.Fatalf("worker %d: kept vector %d is %v after all solves, want %v", w, i, v, e.want)
				}
			}
		}
	}
}

// TestColdBBAllocations pins the pooled cold path: a finite cold solve
// allocates only the returned copy, under the race detector too, including
// when consecutive solves on one free-list entry change width.
func TestColdBBAllocations(t *testing.T) {
	for _, tie := range []bool{false, true} {
		bb := &BB{LexTies: tie}
		for _, n := range []int{8, 16, 64} {
			in := randInstance(int64(n), n, plan3(), 0.8)
			if got := testing.AllocsPerRun(20, func() { bb.Solve(in) }); got > 1 {
				t.Errorf("lexTies=%v cores=%d: cold bb made %v allocations per solve, want 1", tie, n, got)
			}
		}
		var mixed []Instance
		for _, n := range []int{2, 8, 4, 8, 2, 16} {
			mixed = append(mixed, randInstance(int64(50+n), n, plan3(), 0.8))
		}
		if got := testing.AllocsPerRun(20, func() {
			for _, in := range mixed {
				bb.Solve(in)
			}
		}); got > float64(len(mixed)) {
			t.Errorf("lexTies=%v mixed widths: cold bb made %v allocations per %d solves, want %d", tie, got, len(mixed), len(mixed))
		}
	}
}

// TestColdBBNonFiniteMatchesFreshState pins the stable-sort side of the
// cold path: a non-finite instance solved in a free-list entry that a wider
// finite solve just used must give the vector and node counts of a solve on
// fresh state.
func TestColdBBNonFiniteMatchesFreshState(t *testing.T) {
	wide := randInstance(77, 16, plan3(), 0.7)
	var cases []Instance
	for n := 3; n <= 6; n++ {
		nan := randInstance(int64(80+n), n, plan3(), 0.8)
		nan.Power[1][0] = math.NaN()
		nan.Instr[1][0] = 1e9
		inf := randInstance(int64(90+n), n, plan3(), 0.8)
		inf.Power[n-1][1] = math.Inf(1)
		budget := randInstance(int64(100+n), n, plan3(), 0.8)
		budget.BudgetW = math.NaN()
		cases = append(cases, nan, inf, budget)
	}
	for _, tie := range []bool{false, true} {
		b := &BB{LexTies: tie}
		for i, in := range cases {
			var sc bbScratch
			sc.frontier.build(&in, false)
			gv, _, _ := greedySolve(in, nil, nil)
			want, wst := b.solveFrom(&in, nil, &sc, gv, math.Inf(-1), time.Now(), nil)
			b.Solve(wide) // leaves the entry's buffers longer and dirty
			got, st := b.Solve(in)
			if !got.Equal(want) || st.Nodes != wst.Nodes || st.Pruned != wst.Pruned {
				t.Fatalf("lexTies=%v case %d: cold %v (%d nodes, %d pruned), fresh %v (%d, %d)",
					tie, i, got, st.Nodes, st.Pruned, want, wst.Nodes, wst.Pruned)
			}
		}
	}
}

// TestMaxBIPSMatchesExhaustive pins the exact entry point on both sides of
// its gate: instances BB answers (finite, non-negative throughput,
// enumerable, more than smallEnumeration vectors) and instances Exhaustive
// keeps (NaN and infinite entries, ±Inf budgets, negative throughput, widths
// past the enumerable limit, and small instances it enumerates faster).
func TestMaxBIPSMatchesExhaustive(t *testing.T) {
	type tc struct {
		name   string
		in     Instance
		exact  bool // lexBBExact: BB's answer is provably Exhaustive's
		greedy bool // Exhaustive's intractable fallback
	}
	var cases []tc
	for seed := int64(0); seed < 8; seed++ {
		n := 1 + int(seed)
		cases = append(cases, tc{name: "random", in: randInstance(seed+900, n, plan3(), 0.5+0.06*float64(seed)), exact: true})
	}
	nan := randInstance(5, 6, plan3(), 0.8)
	nan.Power[1][0] = math.NaN()
	nan.Instr[1][0] = 1e9
	cases = append(cases, tc{name: "nan-power", in: nan})
	nanInstr := randInstance(6, 6, plan3(), 0.8)
	nanInstr.Instr[2][1] = math.NaN()
	cases = append(cases, tc{name: "nan-instr", in: nanInstr})
	infPower := randInstance(7, 6, plan3(), 0.8)
	infPower.Power[0][2] = math.Inf(1)
	cases = append(cases, tc{name: "inf-power", in: infPower})
	neg := randInstance(8, 5, plan3(), 0.7)
	neg.Instr[3][1] = -2e5
	cases = append(cases, tc{name: "negative-instr", in: neg})
	// Every vector scores below −1, where Exhaustive keeps its all-deepest
	// start and BB would not: the case the Instr ≥ 0 condition exists for.
	allNeg := randInstance(9, 6, plan3(), 0.7)
	for c := range allNeg.Instr {
		for m := range allNeg.Instr[c] {
			allNeg.Instr[c][m] -= 1e7
		}
	}
	if bv, _ := (&BB{LexTies: true}).Solve(allNeg); bv.Equal(allNeg.deepestVector()) {
		t.Fatalf("throughput-below-minus-one: bb also picks all-deepest, so the case shows nothing")
	}
	cases = append(cases, tc{name: "throughput-below-minus-one", in: allNeg})
	for _, b := range []float64{math.Inf(1), math.Inf(-1)} {
		in := randInstance(10, 6, plan3(), 0.8)
		in.BudgetW = b
		cases = append(cases, tc{name: "inf-budget", in: in})
	}
	nanBudget := randInstance(11, 6, plan3(), 0.8)
	nanBudget.BudgetW = math.NaN()
	cases = append(cases, tc{name: "nan-budget", in: nanBudget})
	cases = append(cases, tc{name: "20-cores", in: randInstance(12, 20, plan3(), 0.8), greedy: true})

	var nBB, nSmall int
	for _, c := range cases {
		if got := lexBBExact(c.in); got != c.exact {
			t.Fatalf("%s: gate says exact=%v, want %v", c.name, got, c.exact)
		}
		got, st := MaxBIPS(nil, c.in)
		want, wst := Exhaustive{}.Solve(c.in)
		if !got.Equal(want) {
			t.Fatalf("%s: MaxBIPS %v != Exhaustive %v", c.name, got, want)
		}
		// Built in a caller's vector, longer than the instance and holding
		// stale modes, the answer is the same and costs no allocation.
		dst := make(modes.Vector, c.in.NumCores()+3)
		if into, _ := MaxBIPS(dst, c.in); !into.Equal(got) || &into[0] != &dst[0] {
			t.Fatalf("%s: MaxBIPS into a caller's vector gave %v (own backing %v), want %v", c.name, into, &into[0] == &dst[0], got)
		}
		if allocs := testing.AllocsPerRun(5, func() { MaxBIPS(dst, c.in) }); allocs != 0 {
			t.Errorf("%s: MaxBIPS into a caller's vector made %v allocations, want 0", c.name, allocs)
		}
		small := vectorsAtMost(c.in, smallEnumeration)
		switch {
		case c.exact && small:
			nSmall++
		case c.exact:
			nBB++
		case small:
			t.Fatalf("%s: %d cores enumerate by size alone, so the case shows nothing", c.name, c.in.NumCores())
		}
		if c.exact && !small {
			if st.Solver != "bb" || !st.Exact {
				t.Fatalf("%s: answered by %s (exact %v), want exact bb", c.name, st.Solver, st.Exact)
			}
			if ref := referenceSolve(c.in); !got.Equal(ref) {
				t.Fatalf("%s: MaxBIPS %v != reference %v", c.name, got, ref)
			}
		} else if st.Solver != "exhaustive" || st.Exact != wst.Exact {
			t.Fatalf("%s: answered by %s (exact %v), want exhaustive (exact %v)", c.name, st.Solver, st.Exact, wst.Exact)
		}
		if c.greedy {
			gv, _, _ := greedySolve(c.in, nil, nil)
			if !got.Equal(gv) || st.Exact {
				t.Fatalf("%s: %v (exact %v), want the greedy vector %v", c.name, got, st.Exact, gv)
			}
		}
	}
	if nBB == 0 || nSmall == 0 {
		t.Fatalf("%d cases answered by bb, %d enumerated for size: want both", nBB, nSmall)
	}
}
