// Package modes defines the per-core power modes of §4 — Turbo, Eff1, Eff2 —
// as points on a DVFS plan with linear voltage–frequency scaling, and the
// transition-overhead model of Table 5.
//
// A Plan generalizes the paper's three modes to k levels so the mode-count
// ablation (§5.3: "the number of modes also needs to scale with increasing
// number of cores") can be run with the same machinery.
package modes

import (
	"fmt"
	"strconv"
	"time"
)

// Mode indexes a level in a Plan. Mode 0 is always the highest-performance
// level (Turbo); higher indices save more power.
type Mode int

// The paper's three modes, valid for the default 3-level plan.
const (
	Turbo Mode = iota
	Eff1
	Eff2
)

// Level is one (voltage, frequency) operating point, expressed as scales of
// the nominal (Turbo) values.
type Level struct {
	Name   string
	VScale float64 // supply voltage as a fraction of nominal Vdd
	FScale float64 // clock frequency as a fraction of nominal f
}

// Plan is an ordered set of operating points, highest performance first.
type Plan struct {
	Levels []Level
	// NominalVdd is the Turbo supply voltage in volts.
	NominalVdd float64
	// TransitionRateVPerUs is the voltage ramp rate (§4: 10 mV/µs).
	TransitionRateVPerUs float64
}

// Default returns the paper's plan: Turbo (Vdd, f), Eff1 (0.95 Vdd, 0.95 f),
// Eff2 (0.85 Vdd, 0.85 f), at the given nominal voltage and ramp rate.
func Default(nominalVdd, rateVPerUs float64) Plan {
	return Plan{
		Levels: []Level{
			{Name: "Turbo", VScale: 1.00, FScale: 1.00},
			{Name: "Eff1", VScale: 0.95, FScale: 0.95},
			{Name: "Eff2", VScale: 0.85, FScale: 0.85},
		},
		NominalVdd:           nominalVdd,
		TransitionRateVPerUs: rateVPerUs,
	}
}

// Linear returns a k-level plan with linear V–f scaling from 1.0 down to
// minScale inclusive (k >= 2). Used by the mode-count ablation.
func Linear(k int, minScale, nominalVdd, rateVPerUs float64) Plan {
	if k < 2 {
		panic("modes: Linear needs at least 2 levels")
	}
	if minScale <= 0 || minScale >= 1 {
		panic("modes: minScale must be in (0,1)")
	}
	p := Plan{NominalVdd: nominalVdd, TransitionRateVPerUs: rateVPerUs}
	step := (1.0 - minScale) / float64(k-1)
	for i := 0; i < k; i++ {
		s := 1.0 - float64(i)*step
		name := fmt.Sprintf("L%d", i)
		switch i {
		case 0:
			name = "Turbo"
		case k - 1:
			name = fmt.Sprintf("Eff%d", k-1)
		}
		p.Levels = append(p.Levels, Level{Name: name, VScale: s, FScale: s})
	}
	return p
}

// Validate reports structural problems.
func (p Plan) Validate() error {
	if len(p.Levels) < 1 {
		return fmt.Errorf("modes: plan has no levels")
	}
	if p.NominalVdd <= 0 || p.TransitionRateVPerUs <= 0 {
		return fmt.Errorf("modes: nominal voltage and ramp rate must be positive")
	}
	prev := 2.0
	for i, l := range p.Levels {
		if l.VScale <= 0 || l.VScale > 1 || l.FScale <= 0 || l.FScale > 1 {
			return fmt.Errorf("modes: level %d (%s) scales outside (0,1]", i, l.Name)
		}
		if l.FScale >= prev {
			return fmt.Errorf("modes: level %d (%s) not strictly slower than its predecessor", i, l.Name)
		}
		prev = l.FScale
	}
	if p.Levels[0].VScale != 1 || p.Levels[0].FScale != 1 {
		return fmt.Errorf("modes: level 0 must be nominal (Turbo)")
	}
	return nil
}

// NumModes returns the number of levels.
func (p Plan) NumModes() int { return len(p.Levels) }

// Valid reports whether m indexes a level of p.
func (p Plan) Valid(m Mode) bool { return m >= 0 && int(m) < len(p.Levels) }

// Name returns the level name.
func (p Plan) Name(m Mode) string { return p.Levels[m].Name }

// Voltage returns the absolute supply voltage of mode m in volts.
func (p Plan) Voltage(m Mode) float64 { return p.NominalVdd * p.Levels[m].VScale }

// FreqScale returns the frequency of mode m as a fraction of nominal.
func (p Plan) FreqScale(m Mode) float64 { return p.Levels[m].FScale }

// VScale returns the voltage scale of mode m.
func (p Plan) VScale(m Mode) float64 { return p.Levels[m].VScale }

// PowerScale returns the dynamic-power scale of mode m relative to Turbo:
// P ∝ V²f. With the paper's linear V–f scaling this is the cubic relation of
// §5.5 (e.g. 0.95³ ≈ 0.857, 0.85³ ≈ 0.614).
func (p Plan) PowerScale(m Mode) float64 {
	l := p.Levels[m]
	return l.VScale * l.VScale * l.FScale
}

// EstimatedPowerSavings returns Table 4's analytic power saving for mode m
// (1 − V²f scale).
func (p Plan) EstimatedPowerSavings(m Mode) float64 { return 1 - p.PowerScale(m) }

// EstimatedPerfDegradation returns Table 4's analytic (upper-bound)
// performance degradation for mode m (1 − f scale).
func (p Plan) EstimatedPerfDegradation(m Mode) float64 { return 1 - p.Levels[m].FScale }

// TransitionTime returns the DVFS transition overhead between two modes
// (Table 5): |ΔV| divided by the ramp rate. Same-mode transitions are free.
func (p Plan) TransitionTime(from, to Mode) time.Duration {
	dv := p.Voltage(from) - p.Voltage(to)
	if dv < 0 {
		dv = -dv
	}
	us := dv * 1000 / (p.TransitionRateVPerUs * 1000) // volts / (V/µs) = µs
	return time.Duration(us * float64(time.Microsecond))
}

// MaxTransition returns the largest pairwise transition time in the plan.
func (p Plan) MaxTransition() time.Duration {
	return p.TransitionTime(0, Mode(len(p.Levels)-1))
}

// Vector is a per-core mode assignment.
type Vector []Mode

// Uniform returns an n-core vector with every core in mode m.
func Uniform(n int, m Mode) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = m
	}
	return v
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports element-wise equality.
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the vector with plan-independent numeric modes, e.g.
// "[0 1 2]". It builds the text in one buffer, so its cost is linear in the
// width (policy names embed it, and they reach Result.Policy and trace
// manifests at every width).
func (v Vector) String() string {
	b := make([]byte, 0, 2+2*len(v))
	b = append(b, '[')
	for i, m := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(m), 10)
	}
	return string(append(b, ']'))
}

// MaxTransitionBetween returns the synchronization stall the chip pays when
// switching from vector a to vector b: the longest per-core transition
// (§5.1: "we find the longest transition cost among all cores and assume all
// cores are stalled during this period").
func (p Plan) MaxTransitionBetween(a, b Vector) time.Duration {
	var worst time.Duration
	for i := range a {
		if t := p.TransitionTime(a[i], b[i]); t > worst {
			worst = t
		}
	}
	return worst
}
