package core

import (
	"math"
	"testing"
	"testing/quick"

	"gpm/internal/modes"
)

func plan() modes.Plan { return modes.Default(1.300, 0.010) }

func predictor() Predictor {
	return Predictor{Plan: plan(), ExploreSeconds: 500e-6, DerateTransitions: true}
}

func samples(powers, instrs []float64) []Sample {
	out := make([]Sample, len(powers))
	for i := range powers {
		out[i] = Sample{PowerW: powers[i], Instr: instrs[i]}
	}
	return out
}

func TestPredictorMatricesCubicAndLinear(t *testing.T) {
	pred := Predictor{Plan: plan(), ExploreSeconds: 500e-6} // no derating
	cur := modes.Vector{modes.Turbo, modes.Eff2}
	s := samples([]float64{20, 12.2825}, []float64{1000, 850})
	mx := pred.Matrices(cur, s)
	// Core 0 observed at Turbo: Eff2 power = 20×0.85³, Eff2 instr = 850.
	if got, want := mx.Power[0][int(modes.Eff2)], 20*0.614125; math.Abs(got-want) > 1e-9 {
		t.Errorf("core0 Eff2 power %v, want %v", got, want)
	}
	if got := mx.Instr[0][int(modes.Eff2)]; math.Abs(got-850) > 1e-9 {
		t.Errorf("core0 Eff2 instr %v, want 850", got)
	}
	// Core 1 observed at Eff2: its Turbo projection inverts the scaling.
	if got := mx.Power[1][int(modes.Turbo)]; math.Abs(got-20) > 1e-6 {
		t.Errorf("core1 Turbo power %v, want 20", got)
	}
	if got := mx.Instr[1][int(modes.Turbo)]; math.Abs(got-1000) > 1e-6 {
		t.Errorf("core1 Turbo instr %v, want 1000", got)
	}
	// Staying put is exact.
	if mx.Power[0][0] != 20 || mx.Instr[0][0] != 1000 {
		t.Error("identity projection must be exact")
	}
}

func TestPredictorTransitionDerating(t *testing.T) {
	pred := predictor()
	cur := modes.Vector{modes.Turbo}
	s := samples([]float64{20}, []float64{1000})
	mx := pred.Matrices(cur, s)
	// §5.5: Turbo->Eff2 BIPS carries the 500/(500+19.5) factor.
	raw := 1000 * 0.85
	want := raw * (500.0 / 519.5)
	if got := mx.Instr[0][int(modes.Eff2)]; math.Abs(got-want) > want*0.001 {
		t.Errorf("derated Eff2 instr %v, want ≈%v", got, want)
	}
	// No derating for the current mode.
	if mx.Instr[0][0] != 1000 {
		t.Error("current-mode prediction should be undamped")
	}
}

func TestPredictorParksDoneCores(t *testing.T) {
	pred := predictor()
	s := []Sample{{PowerW: 20, Instr: 100, Done: true}}
	mx := pred.Matrices(modes.Vector{modes.Turbo}, s)
	for m := range mx.Power[0] {
		if mx.Power[0][m] != 0 || mx.Instr[0][m] != 0 {
			t.Fatal("completed core should predict zeros")
		}
	}
}

func TestPredictorPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on sample/core mismatch")
		}
	}()
	predictor().Matrices(modes.Vector{modes.Turbo}, nil)
}

func TestEnumerateVectorsCountAndOrder(t *testing.T) {
	var seen []string
	EnumerateVectors(3, 2, func(v modes.Vector) bool {
		seen = append(seen, v.String())
		return true
	})
	if len(seen) != 9 {
		t.Fatalf("enumerated %d vectors, want 9", len(seen))
	}
	if seen[0] != "[0 0]" || seen[1] != "[0 1]" || seen[8] != "[2 2]" {
		t.Errorf("enumeration order unexpected: %v", seen)
	}
	// Early stop.
	count := 0
	EnumerateVectors(3, 3, func(modes.Vector) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop after %d, want 5", count)
	}
}

// Property: enumeration yields exactly numModes^n distinct vectors.
func TestEnumerateVectorsProperty(t *testing.T) {
	f := func(mRaw, nRaw uint8) bool {
		m := 2 + int(mRaw%3) // 2..4
		n := 1 + int(nRaw%5) // 1..5
		set := map[string]bool{}
		EnumerateVectors(m, n, func(v modes.Vector) bool {
			set[v.String()] = true
			return true
		})
		return len(set) == int(math.Pow(float64(m), float64(n)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// ctx builds a decision context from explicit matrices.
func ctx(t testing.TB, budget float64, powers, instrs []float64, cur modes.Vector) Context {
	t.Helper()
	pred := predictor()
	s := samples(powers, instrs)
	return Context{
		Plan:           plan(),
		Current:        cur,
		BudgetW:        budget,
		Samples:        s,
		Matrices:       pred.Matrices(cur, s),
		ExploreSeconds: pred.ExploreSeconds,
	}
}

func turbo4() modes.Vector { return modes.Uniform(4, modes.Turbo) }

func TestMaxBIPSPicksAllTurboUnderLooseBudget(t *testing.T) {
	c := ctx(t, 1000, []float64{20, 20, 20, 20}, []float64{1000, 900, 800, 700}, turbo4())
	v := MaxBIPS{}.Decide(c)
	if !v.Equal(turbo4()) {
		t.Errorf("loose budget should keep all-Turbo, got %v", v)
	}
}

func TestMaxBIPSRespectsBudgetAndPrefersInsensitiveCores(t *testing.T) {
	// Core 0 is "memory bound": slowing it costs almost nothing — but the
	// linear-BIPS predictor cannot know that; with equal observations
	// MaxBIPS maximizes predicted throughput. Give core 0 lower observed
	// instr so slowing it sacrifices least predicted BIPS.
	c := ctx(t, 72, []float64{20, 20, 20, 20}, []float64{200, 1000, 1000, 1000}, turbo4())
	v := MaxBIPS{}.Decide(c)
	if got := c.Matrices.VectorPower(v); got > 72 {
		t.Errorf("MaxBIPS predicted power %v exceeds budget", got)
	}
	if v[0] == modes.Turbo {
		t.Errorf("expected the low-BIPS core to be slowed first, got %v", v)
	}
	for i := 1; i < 4; i++ {
		if v[i] != modes.Turbo && v[0] == modes.Turbo {
			t.Errorf("high-BIPS core %d slowed before core 0: %v", i, v)
		}
	}
}

func TestMaxBIPSInfeasibleFallsToDeepest(t *testing.T) {
	c := ctx(t, 1, []float64{20, 20, 20, 20}, []float64{1, 1, 1, 1}, turbo4())
	v := MaxBIPS{}.Decide(c)
	if !v.Equal(modes.Uniform(4, modes.Eff2)) {
		t.Errorf("impossible budget should yield all-deepest, got %v", v)
	}
}

func TestGreedyMatchesExhaustiveOnSmallCases(t *testing.T) {
	cases := []struct {
		budget float64
		powers []float64
		instrs []float64
	}{
		{72, []float64{20, 20, 20, 20}, []float64{200, 1000, 1000, 1000}},
		{65, []float64{22, 18, 20, 21}, []float64{900, 400, 700, 1000}},
		{80, []float64{20, 20, 20, 20}, []float64{1000, 1000, 1000, 1000}},
	}
	for i, tc := range cases {
		c := ctx(t, tc.budget, tc.powers, tc.instrs, turbo4())
		ve := MaxBIPS{}.Decide(c)
		vg := GreedyMaxBIPS{}.Decide(c)
		te := c.Matrices.VectorInstr(ve)
		tg := c.Matrices.VectorInstr(vg)
		if tg < te*0.99 {
			t.Errorf("case %d: greedy %.0f more than 1%% below exhaustive %.0f (%v vs %v)", i, tg, te, vg, ve)
		}
		if c.Matrices.VectorPower(vg) > tc.budget {
			t.Errorf("case %d: greedy exceeds budget", i)
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	// Budget fits exactly one Turbo core (others at Eff2): the highest-
	// priority core (index 3) must get it.
	c := ctx(t, 20+3*12.3, []float64{20, 20, 20, 20}, []float64{1000, 1000, 1000, 1000}, turbo4())
	v := Priority{}.Decide(c)
	if v[3] != modes.Turbo {
		t.Errorf("core 3 (highest priority) not released first: %v", v)
	}
	if v[0] == modes.Turbo {
		t.Errorf("core 0 (lowest priority) released before budget allows: %v", v)
	}
}

func TestPriorityOutOfOrderRelease(t *testing.T) {
	// Core 3 is too hungry to upgrade, but core 2 fits: priority operates
	// out of order (§5.2.1). All-Eff2 predicts ≈67.6 W here; 72.5 W leaves
	// slack for core 2's +3.9 W Turbo upgrade but not core 3's +9.7 W Eff1.
	c := ctx(t, 72.5, []float64{40, 20, 10, 40}, []float64{1, 1, 1, 1}, turbo4())
	v := Priority{}.Decide(c)
	if v[3] == modes.Turbo {
		t.Errorf("hungry high-priority core should not fit Turbo: %v", v)
	}
	if v[2] == modes.Eff2 {
		t.Errorf("a cheaper lower-priority core should have been released: %v", v)
	}
}

func TestPullHiPushLoBalances(t *testing.T) {
	// Over budget at current modes: the highest-power core must slow.
	c := ctx(t, 70, []float64{30, 20, 15, 10}, []float64{1000, 1000, 1000, 1000}, turbo4())
	v := PullHiPushLo{}.Decide(c)
	if v[0] == modes.Turbo {
		t.Errorf("highest-power core not pulled down: %v", v)
	}
	if got := c.Matrices.VectorPower(v); got > 70 {
		t.Errorf("still over budget: %.1f W", got)
	}
	// Under budget with a deep core: the lowest-power core speeds up.
	cur := modes.Vector{modes.Eff2, modes.Eff2, modes.Eff2, modes.Eff2}
	c2 := ctx(t, 1000, []float64{12, 12, 12, 12}, []float64{600, 600, 600, 600}, cur)
	v2 := PullHiPushLo{}.Decide(c2)
	up := 0
	for _, m := range v2 {
		if m != modes.Eff2 {
			up++
		}
	}
	if up == 0 {
		t.Errorf("slack not used to push any core up: %v", v2)
	}
}

func TestChipWideUniform(t *testing.T) {
	c := ctx(t, 70, []float64{20, 20, 20, 20}, []float64{1000, 1000, 1000, 1000}, turbo4())
	v := ChipWideDVFS{}.Decide(c)
	for _, m := range v {
		if m != v[0] {
			t.Fatalf("chip-wide vector not uniform: %v", v)
		}
	}
	// 4×20=80 > 70; 4×17.1=68.6 <= 70 ⇒ Eff1.
	if v[0] != modes.Eff1 {
		t.Errorf("expected uniform Eff1, got %v", v)
	}
	// Impossible budget: deepest.
	c2 := ctx(t, 1, []float64{20, 20, 20, 20}, []float64{1, 1, 1, 1}, turbo4())
	if v := (ChipWideDVFS{}).Decide(c2); v[0] != modes.Eff2 {
		t.Errorf("impossible budget should park at deepest: %v", v)
	}
}

func TestOracleUsesLookahead(t *testing.T) {
	// Lookahead says core 0 loses nothing at Eff2 (memory bound); the
	// predictive matrices say otherwise. The oracle must slow core 0.
	c := ctx(t, 72, []float64{20, 20, 20, 20}, []float64{1000, 1000, 1000, 1000}, turbo4())
	c.Lookahead = func(cr int, m modes.Mode) (float64, float64) {
		p := 20 * plan().PowerScale(m)
		in := 1000 * plan().FreqScale(m)
		if cr == 0 {
			in = 1000 // frequency-insensitive
		}
		return p, in
	}
	v := Oracle{}.Decide(c)
	if v[0] == modes.Turbo {
		t.Errorf("oracle ignored lookahead: %v", v)
	}
	// Without lookahead the oracle degenerates to MaxBIPS.
	c.Lookahead = nil
	v2 := Oracle{}.Decide(c)
	v3 := MaxBIPS{}.Decide(c)
	if !v2.Equal(v3) {
		t.Errorf("lookahead-less oracle %v != MaxBIPS %v", v2, v3)
	}
}

func TestFixedPolicy(t *testing.T) {
	f := Fixed{Vector: modes.Vector{modes.Eff1, modes.Turbo}}
	c := ctx(t, 100, []float64{20, 20, 20, 20}, []float64{1, 1, 1, 1}, turbo4())
	v := f.Decide(c)
	if len(v) != 4 {
		t.Fatalf("Fixed did not pad to core count: %v", v)
	}
	if v[0] != modes.Eff1 || v[1] != modes.Turbo || v[2] != modes.Eff2 || v[3] != modes.Eff2 {
		t.Errorf("Fixed vector %v", v)
	}
}

func TestMinPowerMeetsFloor(t *testing.T) {
	c := ctx(t, 1000, []float64{20, 20, 20, 20}, []float64{1000, 400, 1000, 1000}, turbo4())
	v := MinPower{TargetFrac: 0.95}.Decide(c)
	allTurbo := c.Matrices.VectorInstr(turbo4())
	got := c.Matrices.VectorInstr(v)
	if got < 0.95*allTurbo {
		t.Errorf("throughput %v below the 95%% floor of %v", got, allTurbo)
	}
	if p := c.Matrices.VectorPower(v); p >= c.Matrices.VectorPower(turbo4()) {
		t.Errorf("MinPower saved nothing: %v W", p)
	}
	// Infeasible floor falls back to max throughput.
	v2 := MinPower{TargetFrac: 1.5}.Decide(c)
	v3 := MaxBIPS{}.Decide(c)
	if !v2.Equal(v3) {
		t.Errorf("infeasible floor: %v, want MaxBIPS fallback %v", v2, v3)
	}
}

func TestManagerLifecycle(t *testing.T) {
	mgr := NewManager(plan(), MaxBIPS{}, predictor(), 4)
	s := samples([]float64{20, 20, 20, 20}, []float64{1000, 1000, 1000, 1000})
	v, _ := mgr.Decide(Decision{BudgetW: 72, Current: turbo4(), Samples: s})
	if v.Equal(turbo4()) {
		t.Error("tight budget should change modes")
	}
	// Done cores park at deepest regardless of policy output.
	s[2].Done = true
	v, _ = mgr.Decide(Decision{BudgetW: 1000, Current: v.Clone(), Samples: s})
	if v[2] != modes.Eff2 {
		t.Errorf("completed core not parked: %v", v)
	}
}

func TestManagerSanitizesBadPolicy(t *testing.T) {
	bad := Fixed{Vector: modes.Vector{modes.Mode(99), -1}}
	mgr := NewManager(plan(), bad, predictor(), 3)
	s := samples([]float64{20, 20, 20}, []float64{1, 1, 1})
	v, _ := mgr.Decide(Decision{BudgetW: 100, Current: modes.Uniform(3, modes.Turbo), Samples: s})
	for i, m := range v {
		if !plan().Valid(m) {
			t.Errorf("core %d got invalid mode %d", i, m)
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := Registry(name)
		if err != nil || p == nil {
			t.Errorf("Registry(%s): %v", name, err)
		}
	}
	if _, err := Registry("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// Property: every policy's decision always satisfies the budget according to
// the matrices it was given, or equals the all-deepest floor.
func TestPoliciesRespectBudgetProperty(t *testing.T) {
	policies := []Policy{MaxBIPS{}, GreedyMaxBIPS{}, Priority{}, PullHiPushLo{}, ChipWideDVFS{}}
	f := func(pRaw [4]uint8, iRaw [4]uint8, bRaw uint8, polRaw uint8) bool {
		powers := make([]float64, 4)
		instrs := make([]float64, 4)
		var total float64
		for i := 0; i < 4; i++ {
			powers[i] = 10 + float64(pRaw[i]%20)
			instrs[i] = 100 + float64(iRaw[i])*10
			total += powers[i]
		}
		budget := total * (0.55 + float64(bRaw%46)/100) // 55%..100%
		pol := policies[int(polRaw)%len(policies)]
		c := ctx(t, budget, powers, instrs, turbo4())
		v := pol.Decide(c)
		if c.Matrices.VectorPower(v) <= budget {
			return true
		}
		return v.Equal(modes.Uniform(4, modes.Eff2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: MaxBIPS is optimal among all vectors for its own matrices.
func TestMaxBIPSOptimalityProperty(t *testing.T) {
	f := func(pRaw [3]uint8, iRaw [3]uint8, bRaw uint8) bool {
		powers := []float64{10 + float64(pRaw[0]%20), 10 + float64(pRaw[1]%20), 10 + float64(pRaw[2]%20)}
		instrs := []float64{100 + float64(iRaw[0])*10, 100 + float64(iRaw[1])*10, 100 + float64(iRaw[2])*10}
		budget := (powers[0] + powers[1] + powers[2]) * (0.55 + float64(bRaw%46)/100)
		cur := modes.Uniform(3, modes.Turbo)
		c := ctx(t, budget, powers, instrs, cur)
		v := MaxBIPS{}.Decide(c)
		best := c.Matrices.VectorInstr(v)
		ok := true
		EnumerateVectors(3, 3, func(u modes.Vector) bool {
			if c.Matrices.VectorPower(u) <= budget && c.Matrices.VectorInstr(u) > best+1e-9 {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
