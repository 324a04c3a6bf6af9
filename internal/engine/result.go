package engine

import (
	"fmt"
	"slices"
	"time"

	"gpm/internal/core"
	"gpm/internal/modes"
	"gpm/internal/workload"
)

// Result captures a full managed run at delta-sim resolution. Both front ends
// — the trace-based CMP analysis tool (internal/cmpsim) and the cycle-level
// full-CMP simulator (internal/fullsim) — return this one type, so every
// downstream consumer (experiments, metrics, the CLI) reads either substrate
// identically.
type Result struct {
	Combo  workload.Combo
	Policy string

	// DeltaSim is the interval length of the series below.
	DeltaSim time.Duration
	// ChipPowerW[i] is average chip power over delta interval i.
	ChipPowerW []float64
	// CorePowerW.At(i, c) and CoreInstr.At(i, c) are core c's average power
	// and committed instructions over delta interval i.
	CorePowerW Series
	CoreInstr  Series
	// BudgetW[i] is the budget in force during interval i.
	BudgetW []float64
	// Modes[k] is the vector in force during explore interval k. The
	// vectors are capped views into one backing; callers must not mutate
	// them.
	Modes []modes.Vector

	// Elapsed is the simulated wall time (horizon, or first completion).
	Elapsed time.Duration
	// FirstCompleted is the core whose benchmark finished first, or -1.
	FirstCompleted int
	// TotalInstr is aggregate committed instructions; PerCoreInstr splits it.
	TotalInstr   float64
	PerCoreInstr []float64
	// EnergyJ is total chip energy over the run.
	EnergyJ float64
	// TransitionStall is the cumulative synchronized stall time.
	TransitionStall time.Duration
	// OvershootIntervals counts delta intervals whose average chip power
	// exceeded the in-force budget (short excursions corrected at the next
	// explore boundary, §5.5).
	OvershootIntervals int
	// MaxTempC[i] is the hottest core's temperature during delta interval i
	// (only populated when a thermal governor is wired in).
	MaxTempC []float64

	// Robustness accounting (§ "Fault model & resilience" in DESIGN.md).
	//
	// OvershootEnergyWs integrates every budget violation over the run, in
	// watt·seconds; WorstOvershootWs is the largest violation accumulated
	// by a single contiguous run of over-budget intervals — the sustained
	// excursion the package's margins must absorb.
	OvershootEnergyWs float64
	WorstOvershootWs  float64
	// EmergencyEntries counts engagements of the hard-cap throttle and
	// EmergencyIntervals the explore intervals spent throttled (guarded
	// runs only).
	EmergencyEntries   int
	EmergencyIntervals int
	// RecoveryLatency is the longest single emergency episode: the time
	// from throttle engagement until normal policy operation resumed.
	RecoveryLatency time.Duration
	// DeadCores lists cores the guarded manager declared dead and parked.
	DeadCores []int
	// SanitizedSamples counts per-core sensor readings the guarded manager
	// rejected or clamped; RescaledIntervals counts decisions where the
	// per-core sensors were rescaled to the chip-level measurement.
	SanitizedSamples  int
	RescaledIntervals int
	// FinalSamples are the interval-average per-core samples of the last
	// (possibly truncated) explore interval — what the manager would have
	// based its next decision on had the run continued.
	FinalSamples []core.Sample

	// Obs are the engine's always-on observability counters (decisions,
	// per-stage overrides, guard throttles, solver nodes, trace records).
	// They are gauges about the run, not part of the simulated physics, and
	// are excluded from golden Result fingerprints.
	Obs ObsCounters
}

// AvgChipPowerW returns the run's average chip power.
func (r *Result) AvgChipPowerW() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return r.EnergyJ / r.Elapsed.Seconds()
}

// MaxChipPowerW returns the maximum delta-interval chip power.
func (r *Result) MaxChipPowerW() float64 {
	var m float64
	for _, p := range r.ChipPowerW {
		if p > m {
			m = p
		}
	}
	return m
}

// EnvelopePowerW returns the worst-case chip power envelope: the sum of each
// core's maximum observed delta-interval power. Budgets are expressed as
// fractions of this envelope — the power a designer must provision for
// without global management (the "worst-case designs" §8 says dynamic
// management avoids). It exceeds MaxChipPowerW because per-core peaks rarely
// align, mirroring the paper's widening average-vs-peak gap (§1).
func (r *Result) EnvelopePowerW() float64 {
	if r.CorePowerW.Len() == 0 {
		return 0
	}
	var sum float64
	for c := 0; c < r.CorePowerW.Width(); c++ {
		var m float64
		for i := 0; i < r.CorePowerW.Len(); i++ {
			if p := r.CorePowerW.At(i, c); p > m {
				m = p
			}
		}
		sum += m
	}
	return sum
}

// ExploreChipPowerW folds the delta-resolution chip power series into
// per-explore-interval averages (deltasPerExplore samples per interval; a
// truncated final interval averages over the deltas that actually ran).
func (r *Result) ExploreChipPowerW(deltasPerExplore int) []float64 {
	if deltasPerExplore <= 0 || len(r.ChipPowerW) == 0 {
		return nil
	}
	out := make([]float64, 0, (len(r.ChipPowerW)+deltasPerExplore-1)/deltasPerExplore)
	for i := 0; i < len(r.ChipPowerW); i += deltasPerExplore {
		end := i + deltasPerExplore
		if end > len(r.ChipPowerW) {
			end = len(r.ChipPowerW)
		}
		var sum float64
		for _, p := range r.ChipPowerW[i:end] {
			sum += p
		}
		out = append(out, sum/float64(end-i))
	}
	return out
}

// Series is a per-delta, per-core series: Len() rows of Width() values, row
// i holding each core's value over delta interval i. The rows share one
// flat backing, so appending a row allocates nothing until the backing is
// full.
type Series struct {
	width int
	vals  []float64
}

// Len returns the number of rows (delta intervals).
func (s Series) Len() int {
	if s.width == 0 {
		return 0
	}
	return len(s.vals) / s.width
}

// Width returns the number of values per row (cores).
func (s Series) Width() int { return s.width }

// Row returns row i. It aliases the backing: callers must not mutate it.
func (s Series) Row(i int) []float64 {
	return s.vals[i*s.width : (i+1)*s.width : (i+1)*s.width]
}

// At returns core c's value over delta interval i.
func (s Series) At(i, c int) float64 {
	if c < 0 || c >= s.width {
		panic(fmt.Sprintf("engine: series column %d out of range [0,%d)", c, s.width))
	}
	return s.vals[i*s.width+c]
}

// appendRow extends the series by one row of width values and returns it
// for the caller to fill. The first call allocates a backing for estRows
// rows; later calls grow it only past that estimate.
func (s *Series) appendRow(width, estRows int) []float64 {
	if s.vals == nil {
		s.width = width
		s.vals = make([]float64, 0, width*max(estRows, 1))
	}
	k := len(s.vals)
	s.vals = slices.Grow(s.vals, width)[:k+width]
	return s.vals[k : k+width : k+width]
}
