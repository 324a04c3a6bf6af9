package modes

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func defaultPlan() Plan { return Default(1.300, 0.010) }

func TestDefaultPlanMatchesSection4(t *testing.T) {
	p := defaultPlan()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumModes() != 3 {
		t.Fatalf("want 3 modes")
	}
	// §5.1: Turbo 1.300 V, Eff1 1.235 V, Eff2 1.105 V.
	for m, want := range map[Mode]float64{Turbo: 1.300, Eff1: 1.235, Eff2: 1.105} {
		if got := p.Voltage(m); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s voltage %v, want %v", p.Name(m), got, want)
		}
	}
	// Cubic power scales: 1, 0.857, 0.614.
	if got := p.PowerScale(Eff1); math.Abs(got-0.857375) > 1e-9 {
		t.Errorf("Eff1 power scale %v, want 0.95³", got)
	}
	if got := p.PowerScale(Eff2); math.Abs(got-0.614125) > 1e-9 {
		t.Errorf("Eff2 power scale %v, want 0.85³", got)
	}
}

func TestTransitionTimesMatchTable5(t *testing.T) {
	p := defaultPlan()
	cases := []struct {
		a, b Mode
		want time.Duration
	}{
		{Turbo, Eff1, 6500 * time.Nanosecond},
		{Eff1, Eff2, 13 * time.Microsecond},
		{Turbo, Eff2, 19500 * time.Nanosecond},
	}
	for _, c := range cases {
		got := p.TransitionTime(c.a, c.b)
		if d := got - c.want; d > 10*time.Nanosecond || d < -10*time.Nanosecond {
			t.Errorf("transition %s->%s = %v, want %v", p.Name(c.a), p.Name(c.b), got, c.want)
		}
		// Symmetry: ramping up costs the same as ramping down.
		if rev := p.TransitionTime(c.b, c.a); rev != got {
			t.Errorf("transition asymmetric: %v vs %v", got, rev)
		}
	}
	if p.TransitionTime(Eff1, Eff1) != 0 {
		t.Error("same-mode transition should be free")
	}
	if p.MaxTransition() != p.TransitionTime(Turbo, Eff2) {
		t.Error("MaxTransition should be the Turbo<->Eff2 swing")
	}
}

func TestLinearPlans(t *testing.T) {
	for _, k := range []int{2, 3, 5, 7} {
		p := Linear(k, 0.85, 1.3, 0.010)
		if err := p.Validate(); err != nil {
			t.Fatalf("Linear(%d): %v", k, err)
		}
		if p.NumModes() != k {
			t.Fatalf("Linear(%d) has %d modes", k, p.NumModes())
		}
		if p.FreqScale(0) != 1 || math.Abs(p.FreqScale(Mode(k-1))-0.85) > 1e-9 {
			t.Errorf("Linear(%d) endpoints wrong: %v..%v", k, p.FreqScale(0), p.FreqScale(Mode(k-1)))
		}
		// Strictly decreasing frequency.
		for m := 1; m < k; m++ {
			if p.FreqScale(Mode(m)) >= p.FreqScale(Mode(m-1)) {
				t.Errorf("Linear(%d): level %d not slower than %d", k, m, m-1)
			}
		}
	}
}

func TestLinearPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { Linear(1, 0.85, 1.3, 0.01) },
		func() { Linear(3, 0, 1.3, 0.01) },
		func() { Linear(3, 1.0, 1.3, 0.01) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []Plan{
		{},
		{Levels: []Level{{Name: "T", VScale: 1, FScale: 1}}, NominalVdd: 0, TransitionRateVPerUs: 0.01},
		{Levels: []Level{{Name: "X", VScale: 0.9, FScale: 0.9}}, NominalVdd: 1.3, TransitionRateVPerUs: 0.01}, // level 0 not nominal
		{Levels: []Level{{Name: "T", VScale: 1, FScale: 1}, {Name: "U", VScale: 1, FScale: 1}}, NominalVdd: 1.3, TransitionRateVPerUs: 0.01},
		{Levels: []Level{{Name: "T", VScale: 1, FScale: 1}, {Name: "Z", VScale: 1.2, FScale: 0.9}}, NominalVdd: 1.3, TransitionRateVPerUs: 0.01},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated but is invalid", i)
		}
	}
}

// Property: power scale equals V²f for every mode of every linear plan, and
// the estimated savings/degradation are its complements.
func TestPowerScaleProperty(t *testing.T) {
	f := func(kRaw uint8, minRaw uint8) bool {
		k := 2 + int(kRaw%6)
		min := 0.5 + float64(minRaw%40)/100 // 0.50..0.89
		p := Linear(k, min, 1.3, 0.01)
		for m := 0; m < k; m++ {
			mode := Mode(m)
			v, fr := p.VScale(mode), p.FreqScale(mode)
			if math.Abs(p.PowerScale(mode)-v*v*fr) > 1e-12 {
				return false
			}
			if math.Abs(p.EstimatedPowerSavings(mode)-(1-v*v*fr)) > 1e-12 {
				return false
			}
			if math.Abs(p.EstimatedPerfDegradation(mode)-(1-fr)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: transition time is a metric-like function of voltage distance:
// symmetric, zero on the diagonal, and the triangle route through an
// intermediate mode is never cheaper than the direct swing.
func TestTransitionTimeProperty(t *testing.T) {
	f := func(kRaw, aRaw, bRaw, cRaw uint8) bool {
		k := 3 + int(kRaw%5)
		p := Linear(k, 0.7, 1.3, 0.01)
		a := Mode(int(aRaw) % k)
		b := Mode(int(bRaw) % k)
		c := Mode(int(cRaw) % k)
		if p.TransitionTime(a, b) != p.TransitionTime(b, a) {
			return false
		}
		if p.TransitionTime(a, a) != 0 {
			return false
		}
		direct := p.TransitionTime(a, b)
		via := p.TransitionTime(a, c) + p.TransitionTime(c, b)
		// Duration quantization can shave a nanosecond per leg.
		return via >= direct-2*time.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	v := Uniform(4, Eff1)
	for _, m := range v {
		if m != Eff1 {
			t.Fatal("Uniform broken")
		}
	}
	c := v.Clone()
	c[0] = Turbo
	if v[0] != Eff1 {
		t.Error("Clone aliases the original")
	}
	if v.Equal(c) {
		t.Error("vectors should differ")
	}
	if !v.Equal(Uniform(4, Eff1)) {
		t.Error("equal vectors reported unequal")
	}
	if v.Equal(Uniform(3, Eff1)) {
		t.Error("length mismatch should be unequal")
	}
	if got := v.String(); got != "[1 1 1 1]" {
		t.Errorf("String() = %q", got)
	}
}

// TestVectorStringLinear pins String's text, which reaches Result.Policy and
// trace manifests through policy names, and bounds its cost at 1024 cores:
// the text is built in one buffer, not by one string concatenation per core.
func TestVectorStringLinear(t *testing.T) {
	for _, tc := range []struct {
		v    Vector
		want string
	}{
		{Vector{}, "[]"},
		{Vector{2}, "[2]"},
		{Vector{0, 1, 2}, "[0 1 2]"},
		{Vector{-1, 10, 99}, "[-1 10 99]"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", []Mode(tc.v), got, tc.want)
		}
	}
	wide := Uniform(1024, Turbo)
	if allocs := testing.AllocsPerRun(10, func() { _ = wide.String() }); allocs > 2 {
		t.Fatalf("1024-core String allocates %v objects, want at most 2", allocs)
	}
}

func TestMaxTransitionBetween(t *testing.T) {
	p := defaultPlan()
	a := Vector{Turbo, Eff1, Eff2}
	b := Vector{Eff1, Eff1, Turbo}
	got := p.MaxTransitionBetween(a, b)
	want := p.TransitionTime(Eff2, Turbo)
	if got != want {
		t.Errorf("MaxTransitionBetween = %v, want %v (the Eff2->Turbo core)", got, want)
	}
	if p.MaxTransitionBetween(a, a) != 0 {
		t.Error("no-op switch should stall nothing")
	}
}
