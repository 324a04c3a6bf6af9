package core

import (
	"sync"
	"testing"

	"gpm/internal/modes"
	"gpm/internal/solver"
)

// TestSolverPolicyNodeCountRace is the regression for the shared NodeCount
// accumulator: Decide runs on value-receiver copies across concurrent sweep
// workers, all feeding one *int64, so the adds must be atomic. Before the
// fix this was a plain `+=` — run under `go test -race` this test fails on
// the old code and undercounts even without -race.
func TestSolverPolicyNodeCountRace(t *testing.T) {
	var nodes int64
	p := SolverPolicy{Solver: &solver.BB{}, NodeCount: &nodes}
	c := ctx(t, 55, []float64{20, 18, 15, 17, 20, 19, 14, 16},
		[]float64{900, 1000, 700, 850, 950, 880, 640, 720},
		modes.Uniform(8, modes.Turbo))

	ref := SolverPolicy{Solver: &solver.BB{}}.Decide(c)
	var perDecide int64
	{
		var one int64
		SolverPolicy{Solver: &solver.BB{}, NodeCount: &one}.Decide(c)
		perDecide = one
	}
	if perDecide == 0 {
		t.Fatal("test premise broken: BB decision visited 0 nodes")
	}

	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if v := p.Decide(c); !v.Equal(ref) {
					t.Errorf("concurrent Decide diverged: %v != %v", v, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, ok := p.SolveNodes()
	if !ok {
		t.Fatal("SolveNodes reports counting not wired")
	}
	if want := perDecide * workers * rounds; got != want {
		t.Fatalf("NodeCount = %d, want %d (lost updates)", got, want)
	}
}

// TestMatricesFlat pins the flat-backing contract MatricesInto provides for
// zero-copy solver sessions: Flat() exposes row-major aliases of the same
// storage the rows point into, reuse keeps the backing stable, and matrices
// assembled by hand (no flat backing) report ok = false.
func TestMatricesFlat(t *testing.T) {
	pred := predictor()
	cur := modes.Vector{modes.Turbo, modes.Eff1, modes.Eff2}
	s := samples([]float64{20, 15, 9}, []float64{1000, 850, 600})

	var mx Matrices
	pred.MatricesInto(&mx, cur, s)
	fp, fi, ok := mx.Flat()
	if !ok {
		t.Fatal("MatricesInto result reports no flat backing")
	}
	n, m := len(mx.Power), len(mx.Power[0])
	if len(fp) != n*m || len(fi) != n*m {
		t.Fatalf("flat lengths %d/%d, want %d", len(fp), len(fi), n*m)
	}
	for c := 0; c < n; c++ {
		for mo := 0; mo < m; mo++ {
			if fp[c*m+mo] != mx.Power[c][mo] || fi[c*m+mo] != mx.Instr[c][mo] {
				t.Fatalf("flat[%d,%d] diverges from rows", c, mo)
			}
		}
		if &fp[c*m] != &mx.Power[c][0] || &fi[c*m] != &mx.Instr[c][0] {
			t.Fatalf("row %d does not alias the flat backing", c)
		}
	}

	// Reuse must keep the same backing (pointer-stable for session aliasing).
	p0 := &fp[0]
	pred.MatricesInto(&mx, cur, s)
	fp2, _, ok := mx.Flat()
	if !ok || &fp2[0] != p0 {
		t.Fatal("reuse reallocated the flat backing")
	}

	// The allocating Matrices also carries a flat backing.
	alloc := pred.Matrices(cur, s)
	if _, _, ok := alloc.Flat(); !ok {
		t.Fatal("Matrices result reports no flat backing")
	}

	// Hand-shaped matrices (external rows) must refuse, not lie.
	hand := Matrices{Power: [][]float64{{1, 2}}, Instr: [][]float64{{3, 4}}}
	if _, _, ok := hand.Flat(); ok {
		t.Fatal("hand-shaped matrices claim a flat backing")
	}
}

// TestSolverPolicySessionInvariance pins that routing Decide through a
// warm-start session — with and without a hint in the Context — returns the
// bit-identical vector of the cold policy, and that SessionStats is wired.
func TestSolverPolicySessionInvariance(t *testing.T) {
	mk := func() Context {
		return ctx(t, 62, []float64{20, 18, 15, 17, 20, 19},
			[]float64{900, 1000, 700, 850, 950, 880},
			modes.Uniform(6, modes.Turbo))
	}
	cold := SolverPolicy{Solver: &solver.BB{}}.Decide(mk())

	p := NewSolverPolicy(&solver.BB{})
	if _, ok := p.SessionStats(); ok {
		t.Fatal("session reported active before EnsureSession")
	}
	p.EnsureSession()
	defer p.CloseSession()

	c := mk()
	v1 := p.Decide(c).Clone()
	if !v1.Equal(cold) {
		t.Fatalf("session Decide %v != cold %v", v1, cold)
	}
	// The loop actuates v1 and hands it back as the warm vector in force.
	c.Current, c.Warm = v1, true
	if v2 := p.Decide(c); !v2.Equal(cold) {
		t.Fatalf("hinted session Decide %v != cold %v", v2, cold)
	}
	st, ok := p.SessionStats()
	if !ok || st.Solves != 2 {
		t.Fatalf("SessionStats = %+v ok=%v, want 2 solves", st, ok)
	}
	p.CloseSession()
	p.CloseSession() // idempotent
	if v3 := p.Decide(mk()); !v3.Equal(cold) {
		t.Fatalf("post-close cold Decide %v != cold %v", v3, cold)
	}
}

// embeddedSessionPolicy has the shape of a policy wrapper that embeds a
// session-owning *SolverPolicy in a value type (a timing wrapper, say): the
// session methods are promoted, and InvalidateSession is overridden.
type embeddedSessionPolicy struct {
	*SolverPolicy
	invalidations *int
}

func (p embeddedSessionPolicy) InvalidateSession() {
	*p.invalidations++
	p.SolverPolicy.InvalidateSession()
}

// TestManagerAdoptsEmbeddedSession pins that NewManager finds a session by
// method set, not by concrete type: a value-type wrapper embedding
// *SolverPolicy gets its session opened, reported, invalidated through the
// wrapper's override, and released by Close.
func TestManagerAdoptsEmbeddedSession(t *testing.T) {
	var invals int
	pol := embeddedSessionPolicy{SolverPolicy: NewSolverPolicy(&solver.BB{}), invalidations: &invals}
	mgr := NewManager(plan(), pol, predictor(), 4)
	if _, on := pol.SessionStats(); !on {
		t.Fatal("NewManager did not open the wrapper's session")
	}
	s := samples([]float64{20, 18, 15, 17}, []float64{900, 1000, 700, 850})
	mgr.Decide(Decision{BudgetW: 55, Current: turbo4(), Samples: s})
	mgr.InvalidateSession()
	if invals != 1 {
		t.Fatalf("InvalidateSession reached the wrapper's override %d times, want 1", invals)
	}
	if st := mgr.Stats(); !st.SessionOn || st.Session.Solves != 1 {
		t.Fatalf("Stats = %+v, want the session on with 1 solve", st)
	}
	mgr.Close()
	if _, on := pol.SessionStats(); on {
		t.Fatal("Close left the wrapper's session open")
	}
	mgr.Close()
}

// nameSink keeps TestSolverPolicyName's calls from being optimized away.
var nameSink string

// TestSolverPolicyName pins the displayed name of bare, labelled and
// deadline-wrapped solver policies, and its cost: cmpsim asks for it once
// per run, so it builds the string with at most one allocation.
func TestSolverPolicyName(t *testing.T) {
	cases := []struct {
		p    *SolverPolicy
		want string
	}{
		{NewSolverPolicy(&solver.BB{}), "MaxBIPS[bb]"},
		{NewSolverPolicy(&solver.Hier{}), "MaxBIPS[hier]"},
		{&SolverPolicy{Solver: solver.Greedy{}, Label: "maxbips-greedy"}, "maxbips-greedy"},
		{NewSolverPolicy(solver.WithDeadline(&solver.BB{}, 0, 10_000)), "MaxBIPS[bb]"},
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
		if a := testing.AllocsPerRun(100, func() { nameSink = c.p.Name() }); a > 1 {
			t.Errorf("%s: %v allocations per Name call, want at most 1", c.want, a)
		}
	}
}
