package core

import (
	"math"
	"testing"

	"gpm/internal/modes"
)

func newRM(n int, cfg GuardConfig) *rmDriver {
	return &rmDriver{
		ResilientManager: NewResilientManager(plan(), MaxBIPS{}, predictor(), n, cfg),
		cur:              modes.Uniform(n, modes.Turbo),
	}
}

// rmDriver drives a ResilientManager the way the engine loop does: it keeps
// the vector in force, passes it as Decision.Current and adopts each answer.
type rmDriver struct {
	*ResilientManager
	cur modes.Vector
	rep Report
}

func (d *rmDriver) decide(budgetW, chipPowerW float64, s []Sample) modes.Vector {
	v, rep := d.Decide(Decision{BudgetW: budgetW, ChipPowerW: chipPowerW, Current: d.cur, Samples: s})
	copy(d.cur, v)
	d.rep = rep
	return v
}

// inEmergency reports whether the last decision was the hard-cap throttle's.
func (d *rmDriver) inEmergency() bool { return d.rep.Emergency }

func deepestVec(n int) modes.Vector {
	return modes.Uniform(n, modes.Mode(plan().NumModes()-1))
}

func TestGuardDefaultsFilled(t *testing.T) {
	cfg := GuardConfig{}.withDefaults()
	if cfg != DefaultGuard() {
		t.Errorf("zero config resolved to %+v, want %+v", cfg, DefaultGuard())
	}
	// Explicit settings survive.
	cfg = GuardConfig{OvershootK: 7, RecoverFrac: 0.5}.withDefaults()
	if cfg.OvershootK != 7 || cfg.RecoverFrac != 0.5 {
		t.Errorf("explicit values overwritten: %+v", cfg)
	}
}

func TestSanitizeRejectsGarbage(t *testing.T) {
	rm := newRM(2, GuardConfig{})
	good := samples([]float64{20, 18}, []float64{1000, 900})
	rm.decide(100, 38, good)

	bad := samples([]float64{math.NaN(), -5}, []float64{1000, 900})
	v := rm.decide(100, 38, bad)
	if !plan().Valid(v[0]) || !plan().Valid(v[1]) {
		t.Fatalf("invalid vector %v from garbage samples", v)
	}
	st := rm.Stats().Guard
	if st.SanitizedSamples != 2 {
		t.Errorf("SanitizedSamples = %d, want 2 (NaN and negative)", st.SanitizedSamples)
	}

	// Infinity and over-range are rejected too.
	bad = samples([]float64{math.Inf(1), 1e6}, []float64{1000, 900})
	rm.decide(100, 38, bad)
	if got := rm.Stats().Guard.SanitizedSamples; got != 4 {
		t.Errorf("SanitizedSamples = %d, want 4", got)
	}
}

func TestEWMAClampsOutliers(t *testing.T) {
	rm := newRM(1, GuardConfig{})
	for i := 0; i < 5; i++ {
		rm.decide(100, 20, samples([]float64{20}, []float64{1000}))
	}
	// A 10× spike is physically implausible between intervals.
	rm.decide(100, 20, samples([]float64{200}, []float64{1000}))
	st := rm.Stats().Guard
	if st.ClampedSamples != 1 {
		t.Errorf("ClampedSamples = %d, want 1", st.ClampedSamples)
	}
	if st.SanitizedSamples != 0 {
		t.Errorf("clamp should repair, not reject: %d rejections", st.SanitizedSamples)
	}
}

func TestEmergencyThrottleEngagesAndRecovers(t *testing.T) {
	cfg := GuardConfig{OvershootK: 3, RecoverH: 2}
	rm := newRM(2, cfg)
	s := samples([]float64{30, 30}, []float64{1000, 1000})
	budget := 50.0

	// Two overshoots: still normal operation.
	for i := 0; i < 2; i++ {
		rm.decide(budget, 60, s)
		if rm.inEmergency() {
			t.Fatalf("emergency after %d overshoots, want %d", i+1, cfg.OvershootK)
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
		t.Fatal("guard still engaged after RecoverH recoveries")
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
	rm := newRM(1, GuardConfig{OvershootK: 3})
	s := samples([]float64{30}, []float64{1000})
	for i := 0; i < 10; i++ {
		rm.decide(50, 60, s) // over
		rm.decide(50, 40, s) // under: resets the run
	}
	if rm.inEmergency() || rm.Stats().Guard.EmergencyEntries != 0 {
		t.Error("alternating overshoots must not trip the guard")
	}
}

func TestDeadCoreDetectionAndParking(t *testing.T) {
	cfg := GuardConfig{DeadIntervals: 3}
	rm := newRM(2, cfg)
	live := samples([]float64{20, 20}, []float64{1000, 1000})
	rm.decide(100, 40, live)

	halfDead := samples([]float64{20, 0}, []float64{1000, 0})
	// First two zero intervals are treated as dropouts.
	for i := 0; i < 2; i++ {
		rm.decide(100, 20, halfDead)
		if rm.Dead(1) {
			t.Fatalf("core declared dead after %d zero intervals, want %d", i+1, cfg.DeadIntervals)
		}
	}
	v := rm.decide(100, 20, halfDead)
	if !rm.Dead(1) {
		t.Fatal("core not declared dead after DeadIntervals zero intervals")
	}
	if v[1] != modes.Mode(plan().NumModes()-1) {
		t.Errorf("dead core in mode %v, want parked at deepest", v[1])
	}
	if v[0] == modes.Mode(plan().NumModes()-1) && rm.inEmergency() {
		t.Error("live core throttled by a neighbour's death")
	}
	st := rm.Stats().Guard
	if len(st.DeadCores) != 1 || st.DeadCores[0] != 1 {
		t.Errorf("DeadCores = %v, want [1]", st.DeadCores)
	}

	// A dropout counter resets on recovery.
	rm2 := newRM(1, cfg)
	zero := samples([]float64{0}, []float64{0})
	ok := samples([]float64{20}, []float64{1000})
	rm2.decide(100, 20, ok)
	rm2.decide(100, 20, zero)
	rm2.decide(100, 20, zero)
	rm2.decide(100, 20, ok)
	rm2.decide(100, 20, zero)
	rm2.decide(100, 20, zero)
	if rm2.Dead(0) {
		t.Error("interleaved dropouts declared a live core dead")
	}
}

func TestDeadCoreBudgetRedistributes(t *testing.T) {
	// With one core dead, MaxBIPS should be able to keep the survivor at
	// Turbo under a budget that previously forced both cores down.
	rm := newRM(2, GuardConfig{DeadIntervals: 1})
	budget := 25.0 // two 20 W cores cannot both run Turbo
	both := samples([]float64{20, 20}, []float64{1000, 1000})
	v := rm.decide(budget, 40, both)
	if v[0] == modes.Turbo && v[1] == modes.Turbo {
		t.Fatal("budget should not admit two Turbo cores")
	}
	// Report power consistent with the mode each core actually ran in.
	p0 := 20 * plan().PowerScale(v[0])
	dead1 := samples([]float64{p0, 0}, []float64{1000, 0})
	v = rm.decide(budget, p0, dead1)
	if !rm.Dead(1) {
		t.Fatal("core 1 not declared dead")
	}
	if v[0] != modes.Turbo {
		t.Errorf("survivor in mode %v; the dead core's share should let it run Turbo", v[0])
	}
}

func TestCrossCheckRescalesStuckLowSensor(t *testing.T) {
	rm := newRM(2, GuardConfig{})
	// Core 1's sensor is stuck at 0.5 W but the chip sensor reads the true
	// 40 W total. Sanitized powers must be rescaled to sum to 40.
	s := samples([]float64{20, 0.5}, []float64{1000, 1000})
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
	// per-core sum, which here is under budget.
	rm := newRM(1, GuardConfig{OvershootK: 1})
	s := samples([]float64{20}, []float64{1000})
	rm.decide(100, math.NaN(), s)
	rm.decide(100, math.Inf(1), s)
	rm.decide(100, -3, s)
	if rm.inEmergency() {
		t.Error("junk chip readings tripped the guard")
	}
}
