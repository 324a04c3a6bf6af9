package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"gpm/internal/modes"
)

// driftInstance perturbs an instance the way consecutive explore intervals
// do: small multiplicative telemetry noise on every matrix entry, with
// occasional exact repeats (a memo opportunity) and occasional budget moves.
func driftInstance(rng *rand.Rand, in Instance) Instance {
	switch rng.Intn(6) {
	case 0:
		return in // bit-identical repeat: the memo's case
	case 1:
		in.BudgetW *= 0.9 + 0.2*rng.Float64() // budget step, matrices held
		return in
	}
	out := Instance{Plan: in.Plan, BudgetW: in.BudgetW,
		Power: make([][]float64, len(in.Power)), Instr: make([][]float64, len(in.Instr))}
	for c := range in.Power {
		out.Power[c] = append([]float64(nil), in.Power[c]...)
		out.Instr[c] = append([]float64(nil), in.Instr[c]...)
		for mo := range out.Power[c] {
			out.Power[c][mo] *= 1 + 0.02*(rng.Float64()-0.5)
			out.Instr[c][mo] *= 1 + 0.02*(rng.Float64()-0.5)
		}
	}
	if rng.Intn(4) == 0 {
		out.BudgetW *= 0.95 + 0.1*rng.Float64()
	}
	return out
}

// TestWarmVsColdBitIdentical is the tentpole's result-invariance pin: over
// seeded telemetry-delta sequences, a session solve fed the previous
// interval's vector as a hint must return the bit-identical vector of a cold
// solve of the same solver on the same instance — for every solver the
// registry can build, including the LexTies BB whose tie representative is
// the most fragile property a warm floor could disturb. The wide hier case
// (32 clusters of 8) drives the child sessions' frontier reuse across each
// decision's initial and rebalance solves. The hier cases that follow
// stress the rebalance offers a certificate answers without a solve: the
// 90 → 60 % budget step of the 1024-core benchmark under drifting
// telemetry, and replicated integer rows held still while the budget moves,
// where vectors tie exactly on (throughput, power) in both tie modes. A
// bare Hier answers rebalance offers from certificates too, so every hier
// case's cold side is a Hier over an uncertified inner BB, which re-solves
// every offer: an unsound certificate cannot hide behind the reference.
func TestWarmVsColdBitIdentical(t *testing.T) {
	type cfg struct {
		name string
		mk   func() Solver
		// cold, when set, builds the cold reference in place of mk.
		cold func() Solver
		n    int
		// start and next, when set, replace randInstance and driftInstance.
		start func(seed int64, rng *rand.Rand) Instance
		next  func(rng *rand.Rand, in Instance, step int) Instance
	}
	budgetStep := func(rng *rand.Rand, in Instance, step int) Instance {
		var turbo float64
		for c := range in.Power {
			turbo += in.Power[c][0]
		}
		out := driftInstance(rng, in)
		out.BudgetW = 0.9 * turbo
		if step >= 5 {
			out.BudgetW = 0.6 * turbo
		}
		return out
	}
	tied := func(seed int64, rng *rand.Rand) Instance { return tiedInstance(rng, 24, plan3()) }
	budgetMoves := func(rng *rand.Rand, in Instance, step int) Instance {
		if rng.Intn(4) > 0 {
			in.BudgetW = math.Floor(in.BudgetW*(0.8+0.4*rng.Float64())) + 0.5*float64(rng.Intn(2))
		}
		return in
	}
	resolving := func(k int) func() Solver {
		return func() Solver { return &Hier{ClusterSize: k, Inner: uncertified{&BB{}}} }
	}
	cfgs := []cfg{
		{name: "bb", mk: func() Solver { return &BB{} }, n: 12},
		{name: "bb-lexties", mk: func() Solver { return &BB{LexTies: true} }, n: 10},
		{name: "hier", mk: func() Solver { return &Hier{ClusterSize: 4} }, cold: resolving(4), n: 12},
		{name: "hier-wide", mk: func() Solver { return &Hier{ClusterSize: 8} }, cold: resolving(8), n: 256},
		{name: "greedy", mk: func() Solver { return Greedy{} }, n: 16},
		{name: "exhaustive", mk: func() Solver { return Exhaustive{} }, n: 7},
		{name: "hier-wide-budget-step", mk: func() Solver { return &Hier{ClusterSize: 8} }, cold: resolving(8), n: 256,
			start: func(seed int64, rng *rand.Rand) Instance { return randInstance(seed+400, 256, plan3(), 0.9) },
			next:  budgetStep},
		{name: "hier-tied", mk: func() Solver { return &Hier{ClusterSize: 4} }, cold: resolving(4),
			start: tied, next: budgetMoves},
		{name: "hier-tied-lexties", mk: func() Solver { return &Hier{ClusterSize: 4, Inner: &BB{LexTies: true}} },
			cold:  func() Solver { return &Hier{ClusterSize: 4, Inner: uncertified{&BB{LexTies: true}}} },
			start: tied, next: budgetMoves},
	}
	const seeds = 4 // × 9 configs = 36 drift sequences
	const steps = 12
	for _, c := range cfgs {
		for seed := int64(0); seed < seeds; seed++ {
			cold := c.mk()
			if c.cold != nil {
				cold = c.cold()
			}
			ses := NewSession(c.mk())
			rng := rand.New(rand.NewSource(1000*seed + 7))
			var in Instance
			if c.start != nil {
				in = c.start(seed, rng)
			} else {
				in = randInstance(seed+300, c.n, plan3(), 0.55+0.3*rng.Float64())
			}
			var hint Hint
			for step := 0; step < steps; step++ {
				cv, _ := cold.Solve(in)
				wv, wst := ses.Solve(in, hint)
				if !cv.Equal(wv) {
					t.Fatalf("%s seed %d step %d: warm %v != cold %v (hint %v)",
						c.name, seed, step, wv, cv, hint.Vector)
				}
				if wst.Aborted {
					t.Fatalf("%s seed %d step %d: unbudgeted session solve aborted", c.name, seed, step)
				}
				hint = Hint{Vector: wv.Clone(), Instr: in.VectorInstr(wv)}
				if c.next != nil {
					in = c.next(rng, in, step+1)
				} else {
					in = driftInstance(rng, in)
				}
			}
			ses.Close()
		}
	}
}

// TestSessionNonFiniteMatchesCold drives sessions over instances poisoned
// with NaN and ±Inf in rows and budget, alternating with finite ones, so the
// memo, warm floors, frontier reuse and certificates all meet them. BB
// sessions in both tie modes, Greedy sessions and Hier sessions (several
// clusters and one) must return the cold solve's vector at every step; BB
// must also return the vector of a DFS seeded by the scan over stable-sorted
// frontiers, and Greedy the scan's vector. A Hier's cold side runs over an
// uncertified inner BB, so it re-solves every rebalance offer.
func TestSessionNonFiniteMatchesCold(t *testing.T) {
	type cfg struct {
		name string
		mk   func() Solver
		cold func() Solver
		n    int
	}
	cfgs := []cfg{
		{"bb", func() Solver { return &BB{} }, nil, 9},
		{"bb-lexties", func() Solver { return &BB{LexTies: true} }, nil, 9},
		{"greedy", func() Solver { return Greedy{} }, nil, 60},
		{"hier", func() Solver { return &Hier{ClusterSize: 4} },
			func() Solver { return &Hier{ClusterSize: 4, Inner: uncertified{&BB{}}} }, 14},
		{"hier-one-cluster", func() Solver { return &Hier{} },
			func() Solver { return &Hier{Inner: uncertified{&BB{}}} }, 6},
	}
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	nonFinite := 0
	for _, c := range cfgs {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(500 + seed))
			ses := NewSession(c.mk())
			base := randInstance(seed+700, c.n, plan3(), 0.5+0.4*rng.Float64())
			var hint Hint
			for step := 0; step < 16; step++ {
				in := driftInstance(rng, base)
				if step%4 != 3 {
					// Poison a copy: the drifted instance may share base's rows.
					p := Instance{Plan: in.Plan, BudgetW: in.BudgetW,
						Power: make([][]float64, c.n), Instr: make([][]float64, c.n)}
					for k := range p.Power {
						p.Power[k] = append([]float64(nil), in.Power[k]...)
						p.Instr[k] = append([]float64(nil), in.Instr[k]...)
					}
					x := poison[rng.Intn(len(poison))]
					k, mo := rng.Intn(c.n), rng.Intn(in.NumModes())
					switch rng.Intn(3) {
					case 0:
						p.Power[k][mo] = x
					case 1:
						p.Instr[k][mo] = x
					default:
						p.BudgetW = x
					}
					in = p
				}
				if !finiteInstance(&in) {
					nonFinite++
				}
				cold := c.mk()
				if c.cold != nil {
					cold = c.cold()
				}
				cv, _ := cold.Solve(in)
				wv, _ := ses.Solve(in, hint)
				if !wv.Equal(cv) {
					t.Fatalf("%s seed %d step %d: session %v != cold %v (hint %v)", c.name, seed, step, wv, cv, hint.Vector)
				}
				switch s := c.mk().(type) {
				case Greedy:
					if sv, _, _ := greedySolve(in, nil, nil); !wv.Equal(sv) {
						t.Fatalf("%s seed %d step %d: session %v != scan %v", c.name, seed, step, wv, sv)
					}
				case *BB:
					var sc bbScratch
					sc.frontier.build(&in, false)
					gv, _, _ := greedySolve(in, nil, nil)
					if rv, _ := s.solveFrom(&in, nil, &sc, gv, math.Inf(-1), time.Now(), nil); !wv.Equal(rv) {
						t.Fatalf("%s seed %d step %d: session %v != scan-seeded reference %v", c.name, seed, step, wv, rv)
					}
				}
				hint = Hint{Vector: wv.Clone()}
				base = driftInstance(rng, base)
			}
			ses.Close()
		}
	}
	if nonFinite < 300 {
		t.Fatalf("only %d non-finite instances: the test no longer probes them", nonFinite)
	}
}

// TestWarmVsColdGarbageHints pins that hostile hints — wrong width, modes out
// of range, infeasible vectors — degrade to cold solves, never to different
// or infeasible answers.
func TestWarmVsColdGarbageHints(t *testing.T) {
	in := randInstance(77, 10, plan3(), 0.7)
	cold := &BB{}
	want, _ := cold.Solve(in)
	bad := []Hint{
		{},
		{Vector: modes.Vector{0, 1}}, // wrong width
		{Vector: modes.Uniform(10, modes.Mode(99))},                     // mode out of range
		{Vector: modes.Uniform(10, modes.Turbo), Instr: math.Inf(1)},    // infeasible (all-Turbo over budget)
		{Vector: modes.Uniform(10, modes.Mode(in.NumModes()-1))},        // feasible but weak
		{Vector: append(modes.Vector(nil), want...), Instr: math.NaN()}, // the optimum itself
	}
	for i, h := range bad {
		ses := NewSession(&BB{})
		got, st := ses.Solve(in, h)
		if !got.Equal(want) {
			t.Fatalf("hint %d: got %v want %v", i, got, want)
		}
		if !st.Exact {
			t.Fatalf("hint %d: warm BB lost exactness", i)
		}
		ses.Close()
	}
}

// TestHeapGreedyMatchesScan pins the two greedy references against each
// other and the walk against both: the O(n·m·log n) heap greedy and the
// sorted walk must return the O(n²·m) scan's vector, including on
// instances with negative upgrade deltas (non-monotone power columns) where
// infeasible candidates must be reconsidered after power drops.
func TestHeapGreedyMatchesScan(t *testing.T) {
	var w walkScratch
	check := func(name string, in Instance) {
		t.Helper()
		var g greedyScratch
		hv, _, _ := heapGreedy(in, nil, &g)
		wv, _, _ := greedyWalk(&in, nil, &w, nil)
		sv, _, _ := greedySolve(in, nil, nil)
		if !sv.Equal(hv) || !sv.Equal(wv) {
			t.Fatalf("%s: heap %v, walk %v, scan %v", name, hv, wv, sv)
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		n := 4 + int(seed%13)
		check(fmt.Sprintf("seed %d", seed), randInstance(seed, n, plan3(), 0.4+0.05*float64(seed%10)))
	}
	// Adversarial: make some upgrades REDUCE power (mode 1 hungrier than
	// mode 0), so feasibility is non-monotone along the upgrade sequence.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(8)
		in := randInstance(int64(trial)+600, n, plan3(), 0.5+0.4*rng.Float64())
		for c := 0; c < n; c++ {
			if rng.Intn(3) == 0 {
				in.Power[c][1] = in.Power[c][0] * (1.1 + rng.Float64()) // upgrade 1→0 frees power
			}
		}
		check(fmt.Sprintf("adversarial trial %d", trial), in)
	}
}

// TestSessionMemo pins the instance memo: bit-identical re-solves are
// answered without search, and any entry change misses.
func TestSessionMemo(t *testing.T) {
	ses := NewSession(&BB{})
	defer ses.Close()
	in := randInstance(5, 10, plan3(), 0.7)
	v1, _ := ses.Solve(in, Hint{})
	v1 = v1.Clone()
	v2, st2 := ses.Solve(in, Hint{})
	if !v1.Equal(v2) {
		t.Fatalf("memo hit returned %v, first solve %v", v2, v1)
	}
	if st2.Nodes != 0 {
		t.Fatalf("memo hit reported %d nodes, want 0", st2.Nodes)
	}
	if got := ses.Stats().MemoHits; got != 1 {
		t.Fatalf("MemoHits = %d, want 1", got)
	}
	// The memo must key on the matrix *values*, not the slice identity:
	// mutate one entry in place and re-solve.
	in.Instr[3][0] *= 2
	_, st3 := ses.Solve(in, Hint{})
	if st3.Nodes == 0 {
		t.Fatal("mutated instance still hit the memo")
	}
	if got := ses.Stats().MemoHits; got != 1 {
		t.Fatalf("MemoHits after mutation = %d, want 1", got)
	}
	// Two instances alternating (Hier's rebalance pattern) must both hit.
	inB := randInstance(6, 10, plan3(), 0.6)
	ses.Solve(inB, Hint{})
	before := ses.Stats().MemoHits
	ses.Solve(in, Hint{})
	ses.Solve(inB, Hint{})
	if got := ses.Stats().MemoHits - before; got != 2 {
		t.Fatalf("alternating instances: %d memo hits, want 2", got)
	}
}

// TestSessionSteadyStateAllocs pins the 0-alloc steady state for the warm
// paths: after warmup, BB solves over drifting telemetry, Hier solves, and
// memo-hit repeats must not allocate per decision.
func TestSessionSteadyStateAllocs(t *testing.T) {
	plan := plan3()
	t.Run("bb-drift", func(t *testing.T) {
		ses := NewSession(&BB{})
		defer ses.Close()
		a := randInstance(11, 32, plan, 0.7)
		b := randInstance(11, 32, plan, 0.7)
		for c := range b.Power {
			for mo := range b.Power[c] {
				b.Power[c][mo] *= 1.001
			}
		}
		var hint Hint
		v, _ := ses.Solve(a, hint)
		hint = Hint{Vector: v.Clone()}
		use := a
		allocs := testing.AllocsPerRun(50, func() {
			if use.Power[0][0] == a.Power[0][0] {
				use = b
			} else {
				use = a
			}
			v, _ := ses.Solve(use, hint)
			copy(hint.Vector, v)
		})
		if allocs != 0 {
			t.Fatalf("warm BB drift steady state allocates %.1f/op, want 0", allocs)
		}
	})
	t.Run("hier-drift", func(t *testing.T) {
		seq := benchDrift(randInstance(15, 64, plan, 0.8), 2)
		ses := NewSession(&Hier{ClusterSize: 8})
		defer ses.Close()
		hint := Hint{Vector: make(modes.Vector, 64)}
		for _, in := range seq {
			v, _ := ses.Solve(in, hint)
			copy(hint.Vector, v)
		}
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			i++
			v, _ := ses.Solve(seq[i%len(seq)], hint)
			copy(hint.Vector, v)
		})
		if allocs != 0 {
			t.Fatalf("warm hier drift steady state allocates %.1f/op, want 0", allocs)
		}
	})
	t.Run("hier-first-solve", func(t *testing.T) {
		// A fresh session's first 1024-core decision sizes its 128 cluster
		// sessions from shared slabs: 22 allocations in all, where growing
		// each cluster's buffers on first use took about 5,900.
		in := randInstance(16, 1024, plan, 0.8)
		allocs := testing.AllocsPerRun(3, func() {
			ses := NewSession(&Hier{ClusterSize: 8})
			ses.Solve(in, Hint{})
			ses.Close()
		})
		if allocs > 32 {
			t.Fatalf("first hier solve allocates %.0f, want at most 32", allocs)
		}
	})
	t.Run("memo-hit", func(t *testing.T) {
		ses := NewSession(&BB{})
		defer ses.Close()
		in := randInstance(12, 64, plan, 0.7)
		ses.Solve(in, Hint{})
		ses.Solve(in, Hint{})
		allocs := testing.AllocsPerRun(100, func() { ses.Solve(in, Hint{}) })
		if allocs != 0 {
			t.Fatalf("memo hit allocates %.1f/op, want 0", allocs)
		}
	})
	t.Run("greedy", func(t *testing.T) {
		ses := NewSession(Greedy{})
		defer ses.Close()
		in := randInstance(13, 64, plan, 0.7)
		in2 := randInstance(14, 64, plan, 0.7)
		ses.Solve(in, Hint{})
		ses.Solve(in2, Hint{})
		use := in
		allocs := testing.AllocsPerRun(100, func() {
			if use.Power[0][0] == in.Power[0][0] {
				use = in2
			} else {
				use = in
			}
			ses.Solve(use, Hint{})
		})
		if allocs != 0 {
			t.Fatalf("warm greedy allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestSessionDeadlineWarm covers the solver.WithDeadline × warm-start
// interaction (satellite 3): an aborted warm solve must return a feasible
// vector at least as good as the hint — the hint qualifies as an incumbent —
// and a completed solve must never be overridden by the hint.
func TestSessionDeadlineWarm(t *testing.T) {
	in := randInstance(21, 24, plan3(), 0.7)
	// A 1-node budget aborts BB immediately: the DFS cannot even reach a
	// leaf, so without a hint the greedy seed is the incumbent.
	ses := NewSession(WithDeadline(&BB{}, 0, 1))
	defer ses.Close()

	cold, _ := (&BB{}).Solve(in)
	hint := Hint{Vector: cold.Clone(), Instr: in.VectorInstr(cold)}

	v, st := ses.Solve(in, hint)
	if !st.Aborted {
		t.Fatal("1-node budget did not abort")
	}
	if st.Exact {
		t.Fatal("aborted solve claims exactness")
	}
	if p := in.VectorPower(v); p > in.BudgetW+in.budgetEps() {
		t.Fatalf("aborted warm solve infeasible: %g > %g", p, in.BudgetW)
	}
	// The hint is the true optimum here, so the anytime answer must be it.
	if !v.Equal(cold) {
		t.Fatalf("aborted warm solve returned %v, want the (optimal) hint %v", v, cold)
	}
	if ses.Stats().HintReturns == 0 {
		t.Fatal("HintReturns not counted")
	}

	// A *weak but feasible* hint must never drag the answer below what the
	// solver found on its own, and the answer must never drop below the hint:
	// the anytime floor is max(incumbent, hint). (The greedy seed is itself
	// node-charged, so under a 1-node budget it may be partial — the hint is
	// the only uncharged floor.)
	weak := Hint{Vector: in.deepestVector()}
	v2, st2 := ses.Solve(in, weak)
	if !st2.Aborted {
		t.Fatal("second solve did not abort")
	}
	if p := in.VectorPower(v2); p > in.BudgetW+in.budgetEps() {
		t.Fatalf("aborted solve infeasible: %g > %g", p, in.BudgetW)
	}
	if in.VectorInstr(v2) < in.VectorInstr(weak.Vector) {
		t.Fatalf("aborted solve returned %v, weaker than its own hint %v", v2, weak.Vector)
	}

	// Unbudgeted session: completed solves ignore even an optimal hint's
	// vector identity (the solver's own result is returned, bit-identical).
	ses2 := NewSession(&BB{})
	defer ses2.Close()
	v3, st3 := ses2.Solve(in, hint)
	if st3.Aborted || !st3.Exact {
		t.Fatal("unbudgeted solve aborted")
	}
	if !v3.Equal(cold) {
		t.Fatalf("completed warm solve %v != cold %v", v3, cold)
	}
}

// TestSessionDeadlineDeterministicNodes pins that a node-budget session
// abort is deterministic call-to-call (same instance, same hint, same cut).
func TestSessionDeadlineDeterministicNodes(t *testing.T) {
	in := randInstance(31, 20, plan3(), 0.65)
	hint := Hint{Vector: in.deepestVector()}
	run := func() (modes.Vector, Stats) {
		ses := NewSession(WithDeadline(&BB{}, 0, 500))
		defer ses.Close()
		v, st := ses.Solve(in, hint)
		return v.Clone(), st
	}
	v1, st1 := run()
	v2, st2 := run()
	if !v1.Equal(v2) {
		t.Fatalf("node-budget abort not deterministic: %v vs %v", v1, v2)
	}
	if st1.Nodes != st2.Nodes {
		t.Fatalf("node counts differ: %d vs %d", st1.Nodes, st2.Nodes)
	}
}

// TestSessionClose pins lifecycle hygiene: Close is idempotent and use after
// Close panics loudly instead of corrupting shared scratch.
func TestSessionClose(t *testing.T) {
	ses := NewSession(&Hier{ClusterSize: 2, Alpha: 0.5})
	in := randInstance(41, 8, plan3(), 0.7)
	ses.Solve(in, Hint{})
	ses.Close()
	ses.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Solve after Close did not panic")
		}
	}()
	ses.Solve(in, Hint{})
}

// TestOptionsValidate is the satellite-2 table: negative or non-finite
// Options fields must fail with a typed *OptionError naming the field.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name  string
		opt   Options
		field string // "" = valid
	}{
		{"zero", Options{}, ""},
		{"positive", Options{ClusterSize: 4, NodeLimit: 1000}, ""},
		{"neg-cluster", Options{ClusterSize: -1}, "ClusterSize"},
		{"neg-nodelimit", Options{NodeLimit: -1}, "NodeLimit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			oe, ok := err.(*OptionError)
			if !ok {
				t.Fatalf("got %T (%v), want *OptionError", err, err)
			}
			if oe.Field != tc.field {
				t.Fatalf("rejected field %q, want %q", oe.Field, tc.field)
			}
			if oe.Error() == "" {
				t.Fatal("empty error string")
			}
			// New must reject the same options for every registry name.
			for _, name := range Names() {
				if _, err := New(name, tc.opt); err == nil {
					t.Fatalf("New(%q) accepted invalid options", name)
				}
			}
		})
	}
}
