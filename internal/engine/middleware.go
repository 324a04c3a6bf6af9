package engine

import (
	"fmt"
	"math"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/thermal"
)

// Step is the mutable state one explore-boundary decision flows through: the
// middleware chain transforms it in order, then the Decider consumes it. It
// mirrors cmpsim's historical inline semantics — budget source → fault spike
// → thermal clamp → fault-injected observation → (guarded) decision — as
// explicit, composable stages.
type Step struct {
	// Now is the simulated time of the decision.
	Now time.Duration
	// BudgetW is the chip power budget, refined stage by stage.
	BudgetW float64
	// TrueSamples are the substrate's honest interval-average observations.
	// Stages must not mutate them.
	TrueSamples []core.Sample
	// Samples is what the manager will observe — initially TrueSamples,
	// possibly replaced by a fault-injection stage.
	Samples []core.Sample
	// ChipPowerW is the independent chip-level (VRM) measurement: the sum of
	// the true per-core powers.
	ChipPowerW float64
}

// Stage is one link of the decision middleware chain.
type Stage interface {
	// Name identifies the stage in errors and docs.
	Name() string
	// Apply transforms the step state. An error aborts the run.
	Apply(st *Step) error
}

// BudgetSource seeds the budget from the run's planned budget function and
// rejects NaN/negative outputs (a silent bad budget would poison every
// downstream decision).
type BudgetSource struct {
	Fn func(t time.Duration) float64
	// ErrPrefix names the front end in validation errors ("cmpsim",
	// "fullsim"); empty selects "engine".
	ErrPrefix string
}

func (b BudgetSource) Name() string { return "budget" }

func (b BudgetSource) Apply(st *Step) error {
	w := b.Fn(st.Now)
	if math.IsNaN(w) || w < 0 {
		prefix := b.ErrPrefix
		if prefix == "" {
			prefix = "engine"
		}
		return fmt.Errorf("%s: budget function returned %v at t=%v; budgets must be non-negative", prefix, w, st.Now)
	}
	st.BudgetW = w
	return nil
}

// FaultBudget applies the injector's transient budget spikes (brownouts,
// surge headroom) to the planned budget.
type FaultBudget struct{ Inj *fault.Injector }

func (f FaultBudget) Name() string { return "fault-budget" }

func (f FaultBudget) Apply(st *Step) error {
	st.BudgetW = f.Inj.Budget(st.Now, st.BudgetW)
	return nil
}

// ThermalClamp caps the budget at the thermal governor's allowance:
// min(budget, thermal budget). A dead thermal sensor (Inj.ThermalFailed)
// repeats its last good reading; that last-good value is seeded from the
// governor's initial reading at construction, so a sensor dead from birth
// clamps to the cold-chip allowance instead of never clamping at all (the
// historical +Inf initialization).
type ThermalClamp struct {
	Gov *thermal.Governor
	Inj *fault.Injector // may be nil: sensor never fails
	// last is the last good reading, pre-seeded by NewThermalClamp.
	last float64
}

// NewThermalClamp builds the clamp stage with the last-good reading seeded
// from the governor's current (initial) state.
func NewThermalClamp(gov *thermal.Governor, inj *fault.Injector) *ThermalClamp {
	return &ThermalClamp{Gov: gov, Inj: inj, last: gov.BudgetW()}
}

func (t *ThermalClamp) Name() string { return "thermal-clamp" }

func (t *ThermalClamp) Apply(st *Step) error {
	tb := t.Gov.BudgetW()
	if t.Inj != nil && t.Inj.ThermalFailed(st.Now) {
		tb = t.last // a dead sensor repeats its final sample
	} else {
		t.last = tb
	}
	if tb < st.BudgetW {
		st.BudgetW = tb
	}
	return nil
}

// FaultObserve perturbs the true samples into what the manager's sensors
// report: noise, drift, dropout, stuck-at faults.
type FaultObserve struct{ Inj *fault.Injector }

func (f FaultObserve) Name() string { return "fault-observe" }

func (f FaultObserve) Apply(st *Step) error {
	st.Samples = f.Inj.ObserveSamples(st.Now, st.TrueSamples)
	return nil
}

// DefaultChain assembles the canonical stage order — budget source →
// fault-injected budget → thermal clamp → fault-injected observation — from
// whichever components are configured. The guard (built by NewDecider) is
// the chain's terminal consumer rather than a Stage: it owns the decision
// itself.
func DefaultChain(budget func(time.Duration) float64, errPrefix string, inj *fault.Injector, gov *thermal.Governor) []Stage {
	chain := []Stage{BudgetSource{Fn: budget, ErrPrefix: errPrefix}}
	if inj != nil {
		chain = append(chain, FaultBudget{Inj: inj})
	}
	if gov != nil {
		chain = append(chain, NewThermalClamp(gov, inj))
	}
	if inj != nil {
		chain = append(chain, FaultObserve{Inj: inj})
	}
	return chain
}
