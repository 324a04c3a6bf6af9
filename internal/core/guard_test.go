package core_test

// The guard that sanitizes a manager's samples and throttles it under a hard
// cap lives in internal/engine, around core.Manager. These tests drive it
// through engine.NewDecider, the way a front end arms it, from core's
// external test package.

import (
	"math"
	"testing"

	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/modes"
)

func guardPlan() modes.Plan { return modes.Default(1.300, 0.010) }

func guardSamples(powers, instrs []float64) []core.Sample {
	out := make([]core.Sample, len(powers))
	for i := range powers {
		out[i] = core.Sample{PowerW: powers[i], Instr: instrs[i]}
	}
	return out
}

// guardRig drives a guarded MaxBIPS manager the way the engine loop does:
// it keeps the vector in force, passes it as Decision.Current and adopts
// each answer.
type guardRig struct {
	engine.Decider
	cur modes.Vector
	rep core.Report
}

func newGuarded(n int) *guardRig {
	pred := core.Predictor{Plan: guardPlan(), ExploreSeconds: 500e-6, DerateTransitions: true}
	return &guardRig{
		Decider: engine.NewDecider(guardPlan(), core.MaxBIPS{}, pred, n, &core.GuardConfig{}, nil, nil),
		cur:     modes.Uniform(n, modes.Turbo),
	}
}

func (d *guardRig) decide(budgetW, chipPowerW float64, s []core.Sample) modes.Vector {
	v, rep := d.Decide(core.Decision{BudgetW: budgetW, ChipPowerW: chipPowerW, Current: d.cur, Samples: s})
	copy(d.cur, v)
	d.rep = rep
	return v
}

// inEmergency reports whether the last decision was the hard-cap throttle's.
func (d *guardRig) inEmergency() bool { return d.rep.Emergency }

// dead reports whether core c has been declared dead.
func (d *guardRig) dead(c int) bool {
	for _, x := range d.Stats().Guard.DeadCores {
		if x == c {
			return true
		}
	}
	return false
}

func deepestVec(n int) modes.Vector {
	return modes.Uniform(n, modes.Mode(guardPlan().NumModes()-1))
}

// The guard's fixed rules these tests count against (engine's overshootK,
// recoverH and deadIntervals).
const (
	overshootK    = 3
	recoverH      = 2
	deadIntervals = 3
)

func TestSanitizeRejectsGarbage(t *testing.T) {
	rm := newGuarded(2)
	good := guardSamples([]float64{20, 18}, []float64{1000, 900})
	rm.decide(100, 38, good)

	bad := guardSamples([]float64{math.NaN(), -5}, []float64{1000, 900})
	v := rm.decide(100, 38, bad)
	if !guardPlan().Valid(v[0]) || !guardPlan().Valid(v[1]) {
		t.Fatalf("invalid vector %v from garbage samples", v)
	}
	st := rm.Stats().Guard
	if st.SanitizedSamples != 2 {
		t.Errorf("SanitizedSamples = %d, want 2 (NaN and negative)", st.SanitizedSamples)
	}

	// Infinity and over-range are rejected too.
	bad = guardSamples([]float64{math.Inf(1), 1e6}, []float64{1000, 900})
	rm.decide(100, 38, bad)
	if got := rm.Stats().Guard.SanitizedSamples; got != 4 {
		t.Errorf("SanitizedSamples = %d, want 4", got)
	}
}

func TestEWMAClampsOutliers(t *testing.T) {
	rm := newGuarded(1)
	for i := 0; i < 5; i++ {
		rm.decide(100, 20, guardSamples([]float64{20}, []float64{1000}))
	}
	// A 10× spike is physically implausible between intervals.
	rm.decide(100, 20, guardSamples([]float64{200}, []float64{1000}))
	st := rm.Stats().Guard
	if st.ClampedSamples != 1 {
		t.Errorf("ClampedSamples = %d, want 1", st.ClampedSamples)
	}
	if st.SanitizedSamples != 0 {
		t.Errorf("clamp should repair, not reject: %d rejections", st.SanitizedSamples)
	}
}

func TestEmergencyThrottleEngagesAndRecovers(t *testing.T) {
	rm := newGuarded(2)
	s := guardSamples([]float64{30, 30}, []float64{1000, 1000})
	budget := 50.0

	// Two overshoots: still normal operation.
	for i := 0; i < overshootK-1; i++ {
		rm.decide(budget, 60, s)
		if rm.inEmergency() {
			t.Fatalf("emergency after %d overshoots, want %d", i+1, overshootK)
		}
	}
	// Third consecutive overshoot trips the guard.
	v := rm.decide(budget, 60, s)
	if !rm.inEmergency() {
		t.Fatal("guard did not engage after K consecutive overshoots")
	}
	if !v.Equal(deepestVec(2)) {
		t.Fatalf("emergency vector %v, want deepest %v", v, deepestVec(2))
	}

	// One recovered interval is not enough (hysteresis).
	v = rm.decide(budget, 40, s)
	if !rm.inEmergency() || !v.Equal(deepestVec(2)) {
		t.Fatal("guard released before RecoverH consecutive recoveries")
	}
	// Second recovered interval releases the throttle this step.
	v = rm.decide(budget, 40, s)
	if rm.inEmergency() {
		t.Fatalf("guard still engaged after %d recoveries", recoverH)
	}
	if v.Equal(deepestVec(2)) {
		t.Fatal("released guard should hand control back to the policy")
	}

	st := rm.Stats().Guard
	if st.EmergencyEntries != 1 {
		t.Errorf("EmergencyEntries = %d, want 1", st.EmergencyEntries)
	}
	if st.EmergencyIntervals != 3 {
		t.Errorf("EmergencyIntervals = %d, want 3", st.EmergencyIntervals)
	}
	if st.LongestEmergency != 3 {
		t.Errorf("LongestEmergency = %d, want 3", st.LongestEmergency)
	}
}

func TestOvershootRunMustBeConsecutive(t *testing.T) {
	rm := newGuarded(1)
	s := guardSamples([]float64{30}, []float64{1000})
	for i := 0; i < 10; i++ {
		rm.decide(50, 60, s) // over
		rm.decide(50, 40, s) // under: resets the run
	}
	if rm.inEmergency() || rm.Stats().Guard.EmergencyEntries != 0 {
		t.Error("alternating overshoots must not trip the guard")
	}
}

func TestDeadCoreDetectionAndParking(t *testing.T) {
	rm := newGuarded(2)
	live := guardSamples([]float64{20, 20}, []float64{1000, 1000})
	rm.decide(100, 40, live)

	halfDead := guardSamples([]float64{20, 0}, []float64{1000, 0})
	// The first zero intervals are treated as dropouts.
	for i := 0; i < deadIntervals-1; i++ {
		rm.decide(100, 20, halfDead)
		if rm.dead(1) {
			t.Fatalf("core declared dead after %d zero intervals, want %d", i+1, deadIntervals)
		}
	}
	v := rm.decide(100, 20, halfDead)
	if !rm.dead(1) {
		t.Fatal("core not declared dead after DeadIntervals zero intervals")
	}
	if v[1] != modes.Mode(guardPlan().NumModes()-1) {
		t.Errorf("dead core in mode %v, want parked at deepest", v[1])
	}
	if v[0] == modes.Mode(guardPlan().NumModes()-1) && rm.inEmergency() {
		t.Error("live core throttled by a neighbour's death")
	}
	st := rm.Stats().Guard
	if len(st.DeadCores) != 1 || st.DeadCores[0] != 1 {
		t.Errorf("DeadCores = %v, want [1]", st.DeadCores)
	}

	// A dropout counter resets on recovery.
	rm2 := newGuarded(1)
	zero := guardSamples([]float64{0}, []float64{0})
	ok := guardSamples([]float64{20}, []float64{1000})
	rm2.decide(100, 20, ok)
	rm2.decide(100, 20, zero)
	rm2.decide(100, 20, zero)
	rm2.decide(100, 20, ok)
	rm2.decide(100, 20, zero)
	rm2.decide(100, 20, zero)
	if rm2.dead(0) {
		t.Error("interleaved dropouts declared a live core dead")
	}
}

func TestDeadCoreBudgetRedistributes(t *testing.T) {
	// With one core dead, MaxBIPS should be able to keep the survivor at
	// Turbo under a budget that previously forced both cores down.
	rm := newGuarded(2)
	budget := 25.0 // two 20 W cores cannot both run Turbo
	both := guardSamples([]float64{20, 20}, []float64{1000, 1000})
	v := rm.decide(budget, 40, both)
	if v[0] == modes.Turbo && v[1] == modes.Turbo {
		t.Fatal("budget should not admit two Turbo cores")
	}
	// Core 1 reports nothing from here on; core 0 reports the power of the
	// mode it actually ran in.
	for i := 0; i < deadIntervals; i++ {
		p0 := 20 * guardPlan().PowerScale(v[0])
		v = rm.decide(budget, p0, guardSamples([]float64{p0, 0}, []float64{1000, 0}))
	}
	if !rm.dead(1) {
		t.Fatal("core 1 not declared dead")
	}
	if v[0] != modes.Turbo {
		t.Errorf("survivor in mode %v; the dead core's share should let it run Turbo", v[0])
	}
}

func TestCrossCheckRescalesStuckLowSensor(t *testing.T) {
	rm := newGuarded(2)
	// Core 1's sensor is stuck at 0.5 W but the chip sensor reads the true
	// 40 W total. Sanitized powers must be rescaled to sum to 40.
	s := guardSamples([]float64{20, 0.5}, []float64{1000, 1000})
	rm.decide(100, 40, s)
	if got := rm.Stats().Guard.RescaledIntervals; got != 1 {
		t.Errorf("RescaledIntervals = %d, want 1", got)
	}
	// With agreement, no rescale happens.
	rm.decide(100, 20.5, s)
	if got := rm.Stats().Guard.RescaledIntervals; got != 1 {
		t.Errorf("RescaledIntervals = %d after agreeing interval, want 1", got)
	}
}

func TestChipSensorFallback(t *testing.T) {
	// A junk chip reading must not poison the guard: it falls back to the
	// per-core sum, which here is under budget. Each junk value repeats for
	// a full overshoot run, which would trip the throttle if it counted.
	rm := newGuarded(1)
	s := guardSamples([]float64{20}, []float64{1000})
	for _, junk := range []float64{math.NaN(), math.Inf(1), -3} {
		for i := 0; i < overshootK; i++ {
			rm.decide(100, junk, s)
		}
	}
	if rm.inEmergency() || rm.Stats().Guard.EmergencyEntries != 0 {
		t.Error("junk chip readings tripped the guard")
	}
}
