package core

import (
	"fmt"
	"math"

	"gpm/internal/modes"
)

// GuardConfig tunes the ResilientManager's sanitization and hard-cap guard.
// The zero value of any field selects the documented default, so
// GuardConfig{} is a usable configuration.
type GuardConfig struct {
	// OvershootK is the number of consecutive over-budget explore intervals
	// tolerated before the emergency throttle engages. Default 3.
	OvershootK int
	// OvershootFrac is the relative tolerance above the budget before an
	// interval counts as an overshoot (policies legitimately ride the
	// boundary, §5.5). Default 0.02.
	OvershootFrac float64
	// RecoverFrac is the fraction of the budget chip power must fall to
	// before the throttle releases. Default 0.95.
	RecoverFrac float64
	// RecoverH is the number of consecutive recovered intervals required
	// before normal policy operation resumes (release hysteresis).
	// Default 2.
	RecoverH int
	// DeadIntervals is the number of consecutive zero-activity intervals
	// after which a live core is declared dead and parked. Default 3.
	DeadIntervals int
	// EWMAAlpha is the smoothing factor of the per-core power EWMA used for
	// outlier clamping. Default 0.25.
	EWMAAlpha float64
	// ClampFactor bounds how far a single power reading may stray from its
	// EWMA (both directions) before it is clamped. Default 4.
	ClampFactor float64
	// MaxCorePowerW is the absolute sanity ceiling on a per-core power
	// reading; anything above is rejected outright. Default 500.
	MaxCorePowerW float64
	// RescaleMismatchFrac triggers cross-checking against the chip-level
	// sensor: when the sanitized per-core powers disagree with the measured
	// chip power by more than this fraction, they are rescaled to match
	// (the chip-level VRM sensor is independent of the per-core sensors).
	// Default 0.10; negative disables.
	RescaleMismatchFrac float64
}

// DefaultGuard returns the default configuration, spelled out.
func DefaultGuard() GuardConfig {
	return GuardConfig{
		OvershootK:          3,
		OvershootFrac:       0.02,
		RecoverFrac:         0.95,
		RecoverH:            2,
		DeadIntervals:       3,
		EWMAAlpha:           0.25,
		ClampFactor:         4,
		MaxCorePowerW:       500,
		RescaleMismatchFrac: 0.10,
	}
}

// Validate rejects configurations withDefaults would silently misread:
// NaN/Inf float fields (NaN fails every threshold comparison, so a
// NaN-tuned guard would neither default nor ever fire). The front ends call
// it before building a guarded manager and wrap the error with their own
// option context.
func (c GuardConfig) Validate() error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	switch {
	case bad(c.OvershootFrac):
		return fmt.Errorf("GuardConfig.OvershootFrac = %v: must be finite", c.OvershootFrac)
	case bad(c.RecoverFrac):
		return fmt.Errorf("GuardConfig.RecoverFrac = %v: must be finite", c.RecoverFrac)
	case bad(c.EWMAAlpha):
		return fmt.Errorf("GuardConfig.EWMAAlpha = %v: must be finite", c.EWMAAlpha)
	case bad(c.ClampFactor):
		return fmt.Errorf("GuardConfig.ClampFactor = %v: must be finite", c.ClampFactor)
	case bad(c.MaxCorePowerW):
		return fmt.Errorf("GuardConfig.MaxCorePowerW = %v: must be finite", c.MaxCorePowerW)
	case bad(c.RescaleMismatchFrac):
		return fmt.Errorf("GuardConfig.RescaleMismatchFrac = %v: must be finite", c.RescaleMismatchFrac)
	}
	return nil
}

func (c GuardConfig) withDefaults() GuardConfig {
	d := DefaultGuard()
	if c.OvershootK <= 0 {
		c.OvershootK = d.OvershootK
	}
	if c.OvershootFrac <= 0 {
		c.OvershootFrac = d.OvershootFrac
	}
	if c.RecoverFrac <= 0 || c.RecoverFrac >= 1 {
		c.RecoverFrac = d.RecoverFrac
	}
	if c.RecoverH <= 0 {
		c.RecoverH = d.RecoverH
	}
	if c.DeadIntervals <= 0 {
		c.DeadIntervals = d.DeadIntervals
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = d.EWMAAlpha
	}
	if c.ClampFactor <= 1 {
		c.ClampFactor = d.ClampFactor
	}
	if c.MaxCorePowerW <= 0 {
		c.MaxCorePowerW = d.MaxCorePowerW
	}
	if c.RescaleMismatchFrac == 0 {
		c.RescaleMismatchFrac = d.RescaleMismatchFrac
	}
	return c
}

// ResilientStats counts the guard's interventions over a run.
type ResilientStats struct {
	// SanitizedSamples counts readings rejected (NaN/Inf/negative/over
	// range/dropout) and replaced by the last known good value.
	SanitizedSamples int
	// ClampedSamples counts readings pulled back inside the EWMA band.
	ClampedSamples int
	// RescaledIntervals counts decisions where the per-core powers were
	// rescaled to the chip-level measurement.
	RescaledIntervals int
	// EmergencyEntries counts transitions into the emergency throttle.
	EmergencyEntries int
	// EmergencyIntervals counts explore intervals spent throttled.
	EmergencyIntervals int
	// LongestEmergency is the longest single throttle episode, in explore
	// intervals (entry until normal operation resumed).
	LongestEmergency int
	// DeadCores lists cores declared dead, in detection order.
	DeadCores []int
}

// ResilientManager wraps the global power manager of §2 with the defenses a
// production chip needs when its telemetry cannot be trusted:
//
//   - sample sanitization: NaN/range rejection with last-known-good
//     fallback, EWMA-based outlier clamping, and cross-checking the per-core
//     sensors against the independent chip-level power measurement;
//   - a hard-cap guard: after OvershootK consecutive over-budget intervals
//     the deepest mode vector is forced until measured chip power recovers
//     below RecoverFrac of budget for RecoverH intervals (hysteresis), at
//     which point normal policy operation resumes;
//   - graceful core-failure degradation: a core reporting no activity for
//     DeadIntervals intervals is declared dead and parked in the deepest
//     mode; marking it Done zeroes its rows in the §5.5 matrices, so the
//     policy naturally redistributes its budget share to the live cores.
type ResilientManager struct {
	inner *Manager
	plan  modes.Plan
	cfg   GuardConfig

	lastGood []Sample
	ewma     []float64
	hasEWMA  []bool
	zeroRun  []int
	dead     []bool

	// clean is the buffer sanitize repairs the observations into, and
	// deepest the emergency throttle's vector; both are reused every
	// decision.
	clean   []Sample
	deepest modes.Vector

	overRun      int
	emergency    bool
	recoverRun   int
	emergencyLen int

	stats ResilientStats
}

// NewResilientManager builds a guarded manager for n cores around any
// MatrixPredictor (see NewManager). The guard's sanitization runs upstream
// of the predictor, so a stateful predictor only ever observes the repaired
// sample stream.
func NewResilientManager(plan modes.Plan, policy Policy, pred MatrixPredictor, n int, cfg GuardConfig) *ResilientManager {
	return &ResilientManager{
		inner:    NewManager(plan, policy, pred, n),
		plan:     plan,
		cfg:      cfg.withDefaults(),
		lastGood: make([]Sample, n),
		ewma:     make([]float64, n),
		hasEWMA:  make([]bool, n),
		zeroRun:  make([]int, n),
		dead:     make([]bool, n),
		deepest:  modes.Uniform(n, modes.Mode(plan.NumModes()-1)),
	}
}

// Dead reports whether core c has been declared dead.
func (r *ResilientManager) Dead(c int) bool { return r.dead[c] }

// Decide performs one guarded explore-time decision. d.ChipPowerW is the
// chip-level power measurement for the previous interval (the VRM-side
// sensor, independent of the per-core sensors); d.Samples are the possibly
// corrupted per-core observations. Like Manager.Decide, it returns a vector
// the manager owns, valid until the next decision; the report's Emergency
// is set when the hard-cap throttle decided in place of the policy.
func (r *ResilientManager) Decide(d Decision) (modes.Vector, Report) {
	r.clean = r.sanitize(r.clean, d.Samples)
	clean := r.clean

	// Fall back to the per-core sum if the chip sensor itself reads junk.
	chipPowerW := d.ChipPowerW
	if math.IsNaN(chipPowerW) || math.IsInf(chipPowerW, 0) || chipPowerW < 0 {
		chipPowerW = 0
		for _, s := range clean {
			chipPowerW += s.PowerW
		}
	}
	r.crossCheck(clean, chipPowerW)

	if r.updateGuard(d.BudgetW, chipPowerW) {
		// Emergency: force the deepest vector; the policy does not run.
		if len(r.deepest) != len(clean) {
			r.deepest = modes.Uniform(len(clean), modes.Mode(r.plan.NumModes()-1))
		}
		return r.deepest, Report{Emergency: true}
	}
	d.Samples = clean
	return r.inner.Decide(d)
}

// sanitize repairs the per-core observations into out (grown when shorter
// than samples) and advances the dead-core detector. It never mutates its
// input.
func (r *ResilientManager) sanitize(out, samples []Sample) []Sample {
	if cap(out) < len(samples) {
		out = make([]Sample, len(samples))
	}
	out = out[:len(samples)]
	copy(out, samples)
	cfg := r.cfg
	for c := range out {
		if c >= len(r.lastGood) {
			break
		}
		if out[c].Done || r.dead[c] {
			out[c].Done = true
			continue
		}
		s := out[c]
		invalid := math.IsNaN(s.PowerW) || math.IsInf(s.PowerW, 0) || s.PowerW < 0 ||
			s.PowerW > cfg.MaxCorePowerW ||
			math.IsNaN(s.Instr) || math.IsInf(s.Instr, 0) || s.Instr < 0

		// Dead-core detection: a live core whose sensors report no power
		// and no committed instructions for DeadIntervals in a row has
		// failed (a single all-zero interval is treated as a dropout and
		// repaired below).
		zero := !invalid && s.PowerW == 0 && s.Instr == 0
		if zero {
			r.zeroRun[c]++
			if r.zeroRun[c] >= cfg.DeadIntervals {
				r.dead[c] = true
				r.stats.DeadCores = append(r.stats.DeadCores, c)
				out[c].Done = true
				continue
			}
			invalid = true // transient dropout until proven dead
		} else if !invalid {
			r.zeroRun[c] = 0
		}

		if invalid {
			r.stats.SanitizedSamples++
			out[c] = r.lastGood[c]
			continue
		}

		// EWMA outlier clamp: a single reading may not stray more than
		// ClampFactor× from the smoothed history in either direction.
		if r.hasEWMA[c] && r.ewma[c] > 0 {
			hi := r.ewma[c] * cfg.ClampFactor
			lo := r.ewma[c] / cfg.ClampFactor
			if out[c].PowerW > hi {
				out[c].PowerW = hi
				r.stats.ClampedSamples++
			} else if out[c].PowerW < lo {
				out[c].PowerW = lo
				r.stats.ClampedSamples++
			}
		}
		if r.hasEWMA[c] {
			r.ewma[c] += cfg.EWMAAlpha * (out[c].PowerW - r.ewma[c])
		} else {
			r.ewma[c] = out[c].PowerW
			r.hasEWMA[c] = true
		}
		r.lastGood[c] = out[c]
	}
	return out
}

// crossCheck reconciles the sanitized per-core powers with the independent
// chip-level measurement: a disagreement beyond RescaleMismatchFrac means
// some per-core sensor is lying (e.g. stuck-at-low), so the readings are
// scaled uniformly to sum to the trusted chip total.
func (r *ResilientManager) crossCheck(clean []Sample, chipPowerW float64) {
	frac := r.cfg.RescaleMismatchFrac
	if frac < 0 || chipPowerW <= 0 {
		return
	}
	var sum float64
	for c := range clean {
		if !clean[c].Done {
			sum += clean[c].PowerW
		}
	}
	if sum <= 0 || math.Abs(sum-chipPowerW) <= frac*chipPowerW {
		return
	}
	scale := chipPowerW / sum
	for c := range clean {
		if !clean[c].Done {
			clean[c].PowerW *= scale
		}
	}
	r.stats.RescaledIntervals++
}

// updateGuard advances the hard-cap state machine with the latest measured
// chip power and reports whether the emergency throttle is engaged for the
// coming interval.
func (r *ResilientManager) updateGuard(budgetW, chipPowerW float64) bool {
	cfg := r.cfg
	if !r.emergency {
		if chipPowerW > budgetW*(1+cfg.OvershootFrac) {
			r.overRun++
		} else {
			r.overRun = 0
		}
		if r.overRun >= cfg.OvershootK {
			r.emergency = true
			r.stats.EmergencyEntries++
			r.recoverRun = 0
			r.emergencyLen = 0
		}
	}
	if r.emergency {
		r.stats.EmergencyIntervals++
		r.emergencyLen++
		if chipPowerW <= budgetW*cfg.RecoverFrac {
			r.recoverRun++
		} else {
			r.recoverRun = 0
		}
		if r.recoverRun >= cfg.RecoverH {
			r.emergency = false
			r.overRun = 0
			if r.emergencyLen > r.stats.LongestEmergency {
				r.stats.LongestEmergency = r.emergencyLen
			}
			return false // resume normal policy this interval
		}
		return true
	}
	return false
}
