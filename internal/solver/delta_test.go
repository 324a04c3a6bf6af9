package solver

import (
	"math/rand"
	"testing"
	"time"

	"gpm/internal/modes"
)

// trackedInstance wraps an Instance with a simulated predictor handshake: the
// test plays the role of core.MatricesInto, mutating rows in place and
// stamping generations, so the session sees exactly the contract the engine
// provides (equal GenID+Gen ⇒ bit-identical matrices; equal Gens[c] ⇒ core
// c's rows bit-identical).
type trackedInstance struct {
	in  Instance
	gen uint64
}

var testGenID uint64 = 0x10000 // far from core.matricesGenID's range; test-local

func newTracked(seed int64, n int, frac float64) *trackedInstance {
	testGenID++
	ti := &trackedInstance{in: randInstance(seed, n, plan3(), frac), gen: 1}
	ti.in.GenID = testGenID
	ti.in.Gen = 1
	ti.in.Gens = make([]uint64, n)
	for c := range ti.in.Gens {
		ti.in.Gens[c] = 1
	}
	return ti
}

// touch mutates the given cores' rows in place and stamps them, exactly as
// MatricesInto would on changed telemetry.
func (ti *trackedInstance) touch(rng *rand.Rand, cores ...int) {
	if len(cores) == 0 {
		return
	}
	ti.gen++
	for _, c := range cores {
		for mo := range ti.in.Power[c] {
			ti.in.Power[c][mo] *= 1 + 0.04*(rng.Float64()-0.5)
			ti.in.Instr[c][mo] *= 1 + 0.04*(rng.Float64()-0.5)
		}
		ti.in.Gens[c] = ti.gen
	}
	ti.in.Gen = ti.gen
}

// kill collapses a core the way death/parking does — zero throughput in every
// mode — and stamps it. The all-equal Instr row voids the margin certificate,
// so deltas over dead cores must demote to the fallback.
func (ti *trackedInstance) kill(c int) {
	ti.gen++
	for mo := range ti.in.Instr[c] {
		ti.in.Instr[c][mo] = 0
		ti.in.Power[c][mo] = 0.1
	}
	ti.in.Gens[c] = ti.gen
	ti.in.Gen = ti.gen
}

// cold solves the instance from scratch with an identically configured
// solver, with the handshake stripped so no session state can leak in.
func coldSolve(s Solver, in Instance) modes.Vector {
	in.Gens, in.Gen, in.GenID = nil, 0, 0
	v, _ := s.Solve(in)
	return v
}

// TestDeltaVsColdProperty is the tentpole's correctness pin: over seeded
// drift sequences spanning sparse dirt (the certified-delta regime), dense
// dirt (beyond maxDeltaDirty), budget steps, and core death, a delta-enabled
// session must return the bit-identical vector of a cold solve on every
// interval — in both BB tie modes. 12 seeds × 2 tie modes = 24 sequences.
func TestDeltaVsColdProperty(t *testing.T) {
	const seeds = 12
	const steps = 16
	var totalDelta, totalCertified, totalFallback int64
	for _, lex := range []bool{false, true} {
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(9000*seed + 31))
			n := 8 + int(seed%5)
			// Even seeds run ample budgets (the argmax regime, where deltas
			// certify); odd seeds run tight ones (the fallback regime).
			frac := 0.55 + 0.35*rng.Float64()
			if seed%2 == 0 {
				frac = 1.1 + 0.3*rng.Float64()
			}
			ti := newTracked(seed+500, n, frac)
			ses := NewSession(&BB{LexTies: lex})
			cold := &BB{LexTies: lex}
			var hint Hint
			for step := 0; step < steps; step++ {
				// Drift class rotates per seed; every class still mixes in
				// occasional clean repeats (the memo-hit case).
				switch seed % 4 {
				case 0: // sparse dirt: K ≤ maxDeltaDirty
					if step > 0 {
						ti.touch(rng, rng.Intn(n))
						if rng.Intn(2) == 0 {
							ti.touch(rng, rng.Intn(n), rng.Intn(n))
						}
					}
				case 1: // dense dirt: K > maxDeltaDirty, delta must decline
					if step > 0 && step%3 != 0 {
						cores := rng.Perm(n)[:n/2+1]
						ti.touch(rng, cores...)
					}
				case 2: // budget steps, matrices mostly held
					if step%2 == 1 {
						ti.in.BudgetW *= 0.85 + 0.3*rng.Float64()
					} else if step > 0 {
						ti.touch(rng, rng.Intn(n))
					}
				case 3: // core death and revival amid sparse dirt
					if step%5 == 2 {
						ti.kill(rng.Intn(n))
					} else if step > 0 {
						ti.touch(rng, rng.Intn(n))
					}
				}
				want := coldSolve(cold, ti.in)
				got, st := ses.Solve(ti.in, hint)
				if !got.Equal(want) {
					t.Fatalf("lex=%v seed %d step %d: session %v != cold %v (stats %+v)",
						lex, seed, step, got, want, ses.Stats())
				}
				if st.Aborted {
					t.Fatalf("lex=%v seed %d step %d: unbudgeted solve aborted", lex, seed, step)
				}
				hint = Hint{Vector: got.Clone(), Instr: ti.in.VectorInstr(got)}
			}
			ss := ses.Stats()
			totalDelta += ss.DeltaSolves
			totalCertified += ss.DeltaCertified
			totalFallback += ss.DeltaFallbacks
			ses.Close()
		}
	}
	// The property is vacuous if the drift never actually drove the delta
	// path; require both outcomes to have occurred across the ensemble.
	if totalCertified == 0 {
		t.Fatalf("no certified delta across 24 sequences (delta=%d fallback=%d): test is vacuous",
			totalDelta, totalFallback)
	}
	if totalFallback == 0 {
		t.Fatalf("no delta fallback across 24 sequences (delta=%d certified=%d): test is vacuous",
			totalDelta, totalCertified)
	}
}

// TestDeltaCertifiedPath pins the happy path end to end: ample budget makes
// the per-core argmax the unique optimum, so a single-core change is patched,
// certified, counted, returned with zero search nodes, and the advanced memo
// entry answers the following identical solve as a generation-check hit.
func TestDeltaCertifiedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ti := newTracked(11, 16, 1.25) // all-Turbo feasible: argmax everywhere
	ses := NewSession(&BB{})
	defer ses.Close()

	v0, st0 := ses.Solve(ti.in, Hint{})
	if !st0.Exact {
		t.Fatal("full solve not exact")
	}
	hint := Hint{Vector: v0.Clone(), Instr: ti.in.VectorInstr(v0)}

	ti.touch(rng, 5)
	want := coldSolve(&BB{}, ti.in)
	got, st := ses.Solve(ti.in, hint)
	if !got.Equal(want) {
		t.Fatalf("certified delta %v != cold %v", got, want)
	}
	ss := ses.Stats()
	if ss.DeltaSolves != 1 || ss.DeltaCertified != 1 || ss.DeltaFallbacks != 0 {
		t.Fatalf("counters after certified delta: %+v", ss)
	}
	if ss.DirtyCores != 1 {
		t.Fatalf("DirtyCores = %d, want 1", ss.DirtyCores)
	}
	if st.Nodes != 0 {
		t.Fatalf("certified delta reported %d search nodes, want 0", st.Nodes)
	}
	if !st.Exact {
		t.Fatal("certified delta must carry the memoized solve's exactness")
	}
	if !ses.ResultStable() {
		t.Fatal("certified delta must leave the session stable")
	}

	// The entry advanced in place: the identical instance is now a memo hit.
	before := ses.Stats().MemoHits
	got2, _ := ses.Solve(ti.in, hint)
	if !got2.Equal(want) {
		t.Fatalf("post-delta memo solve %v != %v", got2, want)
	}
	if ses.Stats().MemoHits != before+1 {
		t.Fatalf("advanced entry missed the memo: hits %d -> %d", before, ses.Stats().MemoHits)
	}
}

// TestHierSingleClusterDelta pins that a Hier whose one cluster covers the
// chip keeps its child session's memo and tracked-instance delta path: that
// child is solved once per decision, so no rebalance certificate stands in
// for them.
func TestHierSingleClusterDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ti := newTracked(11, 8, 1.25) // all-Turbo feasible: the delta certifies
	ses := NewSession(&Hier{ClusterSize: 8})
	defer ses.Close()

	v0, _ := ses.Solve(ti.in, Hint{})
	hint := Hint{Vector: v0.Clone(), Instr: ti.in.VectorInstr(v0)}
	ti.touch(rng, 5)
	want := coldSolve(&Hier{ClusterSize: 8}, ti.in)
	got, _ := ses.Solve(ti.in, hint)
	if !got.Equal(want) {
		t.Fatalf("single-cluster hier %v != cold %v", got, want)
	}
	cs := ses.hier.inner[0].Stats()
	if cs.DeltaSolves != 1 || cs.DeltaCertified != 1 {
		t.Fatalf("single-cluster child took no certified delta: %+v", cs)
	}
	if ses.hier.inner[0].link != nil {
		t.Fatal("single-cluster child is linked for certificates nothing reads")
	}
}

// TestDeltaFallbackPath pins the demotion: under a tight budget the patched
// vector cannot sit at the argmax water level, the certificate is void, the
// attempt is counted as a fallback, and the full solve still returns the
// cold answer.
func TestDeltaFallbackPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ti := newTracked(12, 14, 0.55)
	ses := NewSession(&BB{})
	defer ses.Close()

	v0, _ := ses.Solve(ti.in, Hint{})
	hint := Hint{Vector: v0.Clone(), Instr: ti.in.VectorInstr(v0)}

	ti.touch(rng, 3)
	want := coldSolve(&BB{}, ti.in)
	got, _ := ses.Solve(ti.in, hint)
	if !got.Equal(want) {
		t.Fatalf("fallback solve %v != cold %v", got, want)
	}
	ss := ses.Stats()
	if ss.DeltaSolves != 1 || ss.DeltaFallbacks != 1 || ss.DeltaCertified != 0 {
		t.Fatalf("counters after fallback: %+v", ss)
	}
}

// TestDeltaGating pins every condition that must bypass the delta path:
// bounded sessions (deadline or node budget), untracked instances, budget
// moves, and an explicit Invalidate.
func TestDeltaGating(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	drive := func(t *testing.T, ses *Session, ti *trackedInstance) SessionStats {
		t.Helper()
		v0, _ := ses.Solve(ti.in, Hint{})
		hint := Hint{Vector: v0.Clone(), Instr: ti.in.VectorInstr(v0)}
		ti.touch(rng, 1)
		want := coldSolve(&BB{}, ti.in)
		got, _ := ses.Solve(ti.in, hint)
		if !got.Equal(want) {
			t.Fatalf("gated solve %v != cold %v", got, want)
		}
		return ses.Stats()
	}

	t.Run("session deadline", func(t *testing.T) {
		ses := NewSession(&Deadline{Inner: &BB{}, Wall: time.Hour})
		defer ses.Close()
		if ss := drive(t, ses, newTracked(21, 12, 1.25)); ss.DeltaSolves != 0 {
			t.Fatalf("deadline session attempted delta: %+v", ss)
		}
	})
	t.Run("session node budget", func(t *testing.T) {
		ses := NewSession(&Deadline{Inner: &BB{}, Nodes: 1 << 40})
		defer ses.Close()
		if ss := drive(t, ses, newTracked(22, 12, 1.25)); ss.DeltaSolves != 0 {
			t.Fatalf("node-budget session attempted delta: %+v", ss)
		}
	})
	t.Run("bb node limit", func(t *testing.T) {
		ses := NewSession(&BB{NodeLimit: 1 << 40})
		defer ses.Close()
		if ss := drive(t, ses, newTracked(23, 12, 1.25)); ss.DeltaSolves != 0 {
			t.Fatalf("NodeLimit session attempted delta: %+v", ss)
		}
	})
	t.Run("untracked instance", func(t *testing.T) {
		ses := NewSession(&BB{})
		defer ses.Close()
		ti := newTracked(24, 12, 1.25)
		ti.in.Gens, ti.in.Gen, ti.in.GenID = nil, 0, 0
		v0, _ := ses.Solve(ti.in, Hint{})
		for mo := range ti.in.Power[1] {
			ti.in.Power[1][mo] *= 1.01
		}
		want := coldSolve(&BB{}, ti.in)
		got, _ := ses.Solve(ti.in, Hint{Vector: v0.Clone()})
		if !got.Equal(want) {
			t.Fatalf("untracked solve %v != cold %v", got, want)
		}
		if ss := ses.Stats(); ss.DeltaSolves != 0 {
			t.Fatalf("untracked instance attempted delta: %+v", ss)
		}
	})
	t.Run("budget moved", func(t *testing.T) {
		ses := NewSession(&BB{})
		defer ses.Close()
		ti := newTracked(25, 12, 1.25)
		v0, _ := ses.Solve(ti.in, Hint{})
		ti.touch(rng, 2)
		ti.in.BudgetW *= 0.8
		want := coldSolve(&BB{}, ti.in)
		got, _ := ses.Solve(ti.in, Hint{Vector: v0.Clone()})
		if !got.Equal(want) {
			t.Fatalf("budget-move solve %v != cold %v", got, want)
		}
		if ss := ses.Stats(); ss.DeltaCertified != 0 {
			t.Fatalf("delta certified across a budget move: %+v", ss)
		}
	})
	t.Run("invalidate", func(t *testing.T) {
		ses := NewSession(&BB{})
		defer ses.Close()
		ti := newTracked(26, 12, 1.25)
		v0, _ := ses.Solve(ti.in, Hint{})
		if !ses.ResultStable() {
			t.Fatal("completed solve should be stable")
		}
		ses.Invalidate()
		if ses.ResultStable() {
			t.Fatal("Invalidate left the session stable")
		}
		ti.touch(rng, 4)
		want := coldSolve(&BB{}, ti.in)
		got, _ := ses.Solve(ti.in, Hint{Vector: v0.Clone()})
		if !got.Equal(want) {
			t.Fatalf("post-invalidate solve %v != cold %v", got, want)
		}
		if ss := ses.Stats(); ss.DeltaSolves != 0 || ss.MemoHits != 0 {
			t.Fatalf("Invalidate did not drop the memo/delta state: %+v", ss)
		}
	})
}

// TestSessionMemoDeadlineRace is the satellite regression for the own-abort
// accounting fix: when a wall deadline fires between memoGet and solve
// completion — including inside Hier's concurrent per-cluster goroutines,
// which this test races under -race — the partial incumbent must never be
// memoized or reported exact. Whenever a solve does complete (or hit the
// memo), its vector must equal the cold optimum.
func TestSessionMemoDeadlineRace(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func() Solver
		cold Solver
		n    int
	}{
		{"bb", func() Solver { return &Deadline{Inner: &BB{}, Wall: 30 * time.Microsecond} }, &BB{}, 48},
		{"hier", func() Solver { return &Deadline{Inner: &Hier{ClusterSize: 4}, Wall: 30 * time.Microsecond} }, &Hier{ClusterSize: 4}, 48},
	} {
		t.Run(c.name, func(t *testing.T) {
			ins := []Instance{
				randInstance(61, c.n, plan3(), 0.6),
				randInstance(62, c.n, plan3(), 0.8),
			}
			wants := make([]modes.Vector, len(ins))
			for i := range ins {
				wants[i] = coldSolve(c.cold, ins[i]).Clone()
			}
			ses := NewSession(c.mk())
			defer ses.Close()
			for iter := 0; iter < 60; iter++ {
				i := iter % len(ins)
				prevHits := ses.Stats().MemoHits
				v, st := ses.Solve(ins[i], Hint{})
				fromMemo := ses.Stats().MemoHits > prevHits
				if st.Aborted {
					if fromMemo {
						t.Fatalf("iter %d: memo returned an aborted result", iter)
					}
					if st.Exact {
						t.Fatalf("iter %d: aborted solve claimed exactness", iter)
					}
					continue
				}
				// Completed (or memoized) solves must be the cold optimum; a
				// poisoned memo entry — the pre-fix bug, where a checkpoint
				// trip inside greedy/heap seeding went unreported and the
				// partial vector was cached — fails here on the next hit.
				if !v.Equal(wants[i]) {
					t.Fatalf("iter %d (memo=%v): completed solve %v != cold %v", iter, fromMemo, v, wants[i])
				}
			}
		})
	}

	// Node budgets abort deterministically: the same bounded solve twice must
	// return identical vectors, and neither may populate the memo.
	t.Run("node budget determinism", func(t *testing.T) {
		in := randInstance(63, 32, plan3(), 0.7)
		ses := NewSession(&Deadline{Inner: &BB{}, Nodes: 64})
		defer ses.Close()
		v1, st1 := ses.Solve(in, Hint{})
		first := v1.Clone()
		v2, st2 := ses.Solve(in, Hint{})
		if !st1.Aborted || !st2.Aborted {
			t.Fatalf("64-node budget did not abort a 32-core solve (%v, %v)", st1.Aborted, st2.Aborted)
		}
		if !v2.Equal(first) {
			t.Fatalf("node-budget aborts not deterministic: %v != %v", v2, first)
		}
		if ss := ses.Stats(); ss.MemoHits != 0 {
			t.Fatalf("aborted solves hit the memo: %+v", ss)
		}
	})
}

// TestMemoWithoutCopies pins the memo of sessions without the delta path
// (Hier, node-budgeted BB): a tracked solve leaves an entry without matrix
// copies, which answers the same backing at the same generation and misses
// for another backing or for the same matrices untracked, and every answer
// is the cold solve's. A delta session keeps its copies.
func TestMemoWithoutCopies(t *testing.T) {
	for _, s := range []Solver{&Hier{ClusterSize: 8}, WithDeadline(&BB{}, 0, 1<<22)} {
		ses := NewSession(s)
		ti := newTracked(11, 16, 0.75)
		want := coldSolve(s, ti.in)
		step := func(what string, in Instance, hit bool) {
			t.Helper()
			before := ses.Stats().MemoHits
			v, st := ses.Solve(in, Hint{})
			if st.Aborted {
				t.Fatalf("%s %s: solve aborted", s.Name(), what)
			}
			if !v.Equal(want) {
				t.Fatalf("%s %s: vector %v, want the cold %v", s.Name(), what, v, want)
			}
			if got := ses.Stats().MemoHits - before; got != map[bool]int64{false: 0, true: 1}[hit] {
				t.Fatalf("%s %s: %d memo hits, want hit=%v", s.Name(), what, got, hit)
			}
		}
		step("first solve", ti.in, false)
		for i := range ses.memo {
			if e := &ses.memo[i]; e.ok && (len(e.power) != 0 || len(e.instr) != 0) {
				t.Fatalf("%s: tracked entry holds %d+%d copied entries, want none", s.Name(), len(e.power), len(e.instr))
			}
		}
		step("same generation", ti.in, true)
		other := ti.in
		other.GenID++
		step("another backing", other, false)
		untracked := ti.in
		untracked.Gens, untracked.Gen, untracked.GenID = nil, 0, 0
		step("untracked", untracked, false)
		ses.Close()
	}
	ses := NewSession(&BB{})
	defer ses.Close()
	ti := newTracked(11, 16, 0.75)
	ses.Solve(ti.in, Hint{})
	if e := &ses.memo[0]; len(e.power) != 16*3 || len(e.instr) != 16*3 {
		t.Fatalf("delta session entry holds %d+%d copied entries, want %d each", len(e.power), len(e.instr), 16*3)
	}
}
