// Package cmpsim is the trace-based CMP analysis tool of §3.1: it progresses
// per-benchmark, per-mode characterizations (trace.Player) simultaneously on
// N cores, updates statistics every delta-sim interval (50 µs), and lets the
// global power manager (internal/core) reassign per-core modes at every
// explore interval (500 µs), charging DVFS transition overheads as
// synchronized stalls (§5.1).
//
// The control loop itself lives in internal/engine; this package supplies
// the trace-player Substrate and the option plumbing, so the same loop —
// middleware chain, guard, thermal integration, accounting — also drives the
// cycle-level chip in internal/fullsim.
package cmpsim

import (
	"fmt"
	"time"

	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/obs"
	"gpm/internal/thermal"
	"gpm/internal/trace"
	"gpm/internal/workload"
)

// Options configures one CMP simulation run.
type Options struct {
	// Budget returns the chip power budget in watts at simulated time t.
	// Time-varying budgets model events like Fig 6's cooling failure.
	Budget func(t time.Duration) float64
	// Policy decides mode vectors at explore boundaries.
	Policy core.Policy
	// Predictor builds the §5.5 matrices. Zero value fields are filled from
	// the library's plan and config.
	Predictor core.Predictor
	// MemBound optionally overrides the per-core memory-boundedness ranking;
	// when nil it is derived from the profiles.
	MemBound []float64
	// Horizon optionally overrides cfg.Sim.Horizon.
	Horizon time.Duration
	// Thermal, when non-nil, closes the temperature loop: per-core
	// temperatures integrate the simulated power draw, and the effective
	// budget at each explore boundary becomes min(Budget(t), thermal
	// budget). The governor's horizon should equal the explore interval.
	Thermal *thermal.Governor
	// Fault, when non-nil and enabled, wires a deterministic fault injector
	// between the simulated hardware and the manager: the manager decides on
	// perturbed observations while the simulated physics stay truthful. A
	// nil or all-zero scenario leaves the sample path untouched.
	Fault *fault.Scenario
	// Guard, when non-nil, arms the engine's guard around the manager:
	// samples are sanitized, the hard-cap emergency throttle is armed, and
	// dead cores are parked (engine.NewDecider).
	Guard *core.GuardConfig
	// History, when non-nil, wraps the run's predictor in a history-table
	// phase predictor (core.HistoryPredictor): periodic per-core phase
	// patterns sharpen the BIPS forecast, anything else falls back to
	// last-value. Zero fields select defaults, so &core.HistoryConfig{} is a
	// valid setting. Incompatible with Replay — recorded vectors actuate
	// verbatim, so there is no predictor to improve.
	History *core.HistoryConfig
	// Observer, when non-nil, receives one structured decision trace per
	// explore interval and the Result at run end (obs.Writer streams JSONL,
	// obs.Collector keeps the trace in memory). Nil is the zero-overhead
	// path.
	Observer engine.Observer
	// Supervisor, when non-nil, arms the guard's decision supervisor: the
	// policy runs under a deadline with a graceful degradation ladder behind
	// it, and every actuated vector passes a budget-conformance gate on the
	// matrices the policy decided on. The guard then also sanitizes the
	// samples the policy sees, with or without Guard. Incompatible with
	// Replay: replayed vectors must actuate verbatim.
	Supervisor *engine.SupervisorConfig
	// Replay, when non-nil, re-drives the simulation from a recorded trace:
	// the recorded mode vectors and budgets replace the policy and the
	// budget middleware, reproducing the recording run's Result
	// bit-identically. Policy and Budget become optional; Horizon and Fault
	// default from the trace manifest when unset, so a trace with a manifest
	// replays self-contained. Thermal must be re-supplied by the caller when
	// the recording run had a governor (its parameters are not in the
	// trace).
	Replay *obs.Trace
}

// Result captures a full run at delta-sim resolution. It is the engine's
// substrate-agnostic result type: fullsim managed runs return the same type.
type Result = engine.Result

// MemBoundedness derives a [0,1] memory-boundedness score per benchmark in
// the combo: 1 − (whole-program Eff-deepest degradation / frequency cut).
// Frequency-insensitive (memory-bound) programs score near 1.
func MemBoundedness(lib *trace.Library, combo workload.Combo) ([]float64, error) {
	plan := lib.Plan()
	deepest := modes.Mode(plan.NumModes() - 1)
	cut := 1 - plan.FreqScale(deepest)
	out := make([]float64, combo.Cores())
	for i, name := range combo.Benchmarks {
		pr, err := lib.Profile(name)
		if err != nil {
			return nil, err
		}
		_, tT := pr.WholeProgram(modes.Turbo)
		_, tD := pr.WholeProgram(deepest)
		deg := 1 - tT/tD
		s := 1 - deg/cut
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		out[i] = s
	}
	return out, nil
}

// substrate adapts the trace players to the engine's Substrate interface.
type substrate struct {
	players    []*trace.Player
	exploreSec float64
	memBound   []float64
}

func (s *substrate) NumCores() int { return len(s.players) }

func (s *substrate) Bootstrap() []core.Sample {
	out := make([]core.Sample, len(s.players))
	for c, pl := range s.players {
		e, in := pl.Peek(modes.Turbo, s.exploreSec)
		out[c] = core.Sample{PowerW: e / s.exploreSec, Instr: in}
	}
	return out
}

func (s *substrate) ModePowerW(c int, m modes.Mode) float64 {
	p, _ := s.players[c].Behavior(m)
	return p
}

func (s *substrate) DeltaStep(v modes.Vector, execSec float64, live []bool, energyJ, instr []float64) (completed bool) {
	for c, pl := range s.players {
		if live[c] {
			energyJ[c], instr[c] = pl.Advance(v[c], execSec)
			completed = completed || pl.Completed()
		}
	}
	return completed
}

func (s *substrate) Finished(c int) bool { return s.players[c].Completed() }

func (s *substrate) Lookahead() func(c int, m modes.Mode) (float64, float64) {
	return func(c int, m modes.Mode) (float64, float64) {
		e, in := s.players[c].Peek(m, s.exploreSec)
		return e / s.exploreSec, in
	}
}

func (s *substrate) MemBound() []float64 { return s.memBound }

// Run simulates the combo under the given options.
func Run(lib *trace.Library, combo workload.Combo, opt Options) (*Result, error) {
	sub, eopt, err := build(lib, combo, opt)
	if err != nil {
		return nil, err
	}
	return engine.Run(sub, eopt)
}

// NewLoop resolves the options exactly as Run does but returns the steppable
// engine loop instead of driving it to completion. The fleet tier steps one
// loop per chip from a shared event clock, swapping each chip's budget
// function target between steps. Callers own the loop: Finish (or Close on
// an abandoned loop) is theirs to call.
func NewLoop(lib *trace.Library, combo workload.Combo, opt Options) (*engine.Loop, error) {
	sub, eopt, err := build(lib, combo, opt)
	if err != nil {
		return nil, err
	}
	return engine.New(sub, eopt)
}

// build resolves Options into the substrate and engine options shared by Run
// and NewLoop.
func build(lib *trace.Library, combo workload.Combo, opt Options) (engine.Substrate, engine.Options, error) {
	cfg := lib.Config()
	plan := lib.Plan()
	replaying := opt.Replay != nil
	if opt.Horizon < 0 {
		return nil, engine.Options{}, &engine.OptionError{Component: "cmpsim", Field: "Horizon", Value: opt.Horizon, Reason: "must be non-negative"}
	}
	if opt.Supervisor != nil {
		if replaying {
			return nil, engine.Options{}, &engine.OptionError{Component: "cmpsim", Field: "Supervisor", Value: "non-nil",
				Reason: "incompatible with Replay: recorded vectors must actuate verbatim"}
		}
		if err := opt.Supervisor.Validate("cmpsim"); err != nil {
			return nil, engine.Options{}, err
		}
	}
	if opt.History != nil {
		if replaying {
			return nil, engine.Options{}, &engine.OptionError{Component: "cmpsim", Field: "History", Value: "non-nil",
				Reason: "incompatible with Replay: recorded vectors must actuate verbatim"}
		}
		if err := opt.History.Validate(); err != nil {
			return nil, engine.Options{}, &engine.OptionError{Component: "cmpsim", Field: "History", Value: "", Reason: err.Error()}
		}
	}
	if opt.Policy == nil && !replaying {
		return nil, engine.Options{}, fmt.Errorf("cmpsim: no policy")
	}
	if opt.Budget == nil && !replaying {
		return nil, engine.Options{}, fmt.Errorf("cmpsim: no budget function")
	}
	if replaying {
		// A manifest makes the trace self-contained: the recording run's
		// fault scenario and horizon apply unless the caller overrides them.
		if m := opt.Replay.Manifest; m != nil {
			if opt.Fault == nil && m.FaultSpec != "" {
				sc, err := fault.ParseScenario(m.FaultSpec)
				if err != nil {
					return nil, engine.Options{}, fmt.Errorf("cmpsim: replay: manifest fault spec: %w", err)
				}
				opt.Fault = &sc
			}
			if opt.Horizon == 0 && m.HorizonNs > 0 {
				opt.Horizon = time.Duration(m.HorizonNs)
			}
		}
	}
	players, err := lib.Players(combo)
	if err != nil {
		return nil, engine.Options{}, err
	}
	n := len(players)
	memBound := opt.MemBound
	if memBound == nil {
		memBound, err = MemBoundedness(lib, combo)
		if err != nil {
			return nil, engine.Options{}, err
		}
	}

	pred := opt.Predictor
	if pred.Plan.NumModes() == 0 {
		pred.Plan = plan
	}
	if pred.ExploreSeconds == 0 {
		pred.ExploreSeconds = cfg.Sim.Explore.Seconds()
	}

	var inj *fault.Injector
	if opt.Fault != nil && opt.Fault.Enabled() {
		inj, err = fault.NewInjector(*opt.Fault, n)
		if err != nil {
			return nil, engine.Options{}, err
		}
	}

	horizon := cfg.Sim.Horizon
	if opt.Horizon > 0 {
		horizon = opt.Horizon
	}

	sub := &substrate{
		players:    players,
		exploreSec: cfg.Sim.Explore.Seconds(),
		memBound:   memBound,
	}
	eopt := engine.Options{
		Plan:             plan,
		Budget:           opt.Budget,
		DeltaSim:         cfg.Sim.DeltaSim,
		DeltasPerExplore: cfg.DeltaPerExplore(),
		Explore:          cfg.Sim.Explore,
		Horizon:          horizon,
		Thermal:          opt.Thermal,
		Injector:         inj,
		Observer:         opt.Observer,
		ErrPrefix:        "cmpsim",
		Combo:            combo,
	}
	if replaying {
		dec, err := obs.NewReplayDecider(opt.Replay, cfg.Sim.Explore)
		if err != nil {
			return nil, engine.Options{}, err
		}
		eopt.Decider = dec
		// The recorded budgets already fold the whole budget middleware
		// (source, fault spikes, thermal clamp); replay them verbatim. The
		// thermal governor still integrates for the MaxTempC series, and the
		// injector still kills cores — those are physics, not decisions.
		eopt.Stages = []engine.Stage{obs.NewReplayBudget(opt.Replay)}
		if eopt.Budget == nil {
			eopt.Budget = func(time.Duration) float64 { return 0 } // unused: Stages override the chain
		}
		eopt.PolicyName = opt.Replay.PolicyName()
	} else {
		var mp core.MatrixPredictor = pred
		if opt.History != nil {
			mp = core.NewHistoryPredictor(pred, *opt.History)
		}
		eopt.Decider = engine.NewDecider(plan, opt.Policy, mp, n, opt.Guard, opt.Supervisor, inj)
		eopt.PolicyName = opt.Policy.Name()
	}
	return sub, eopt, nil
}

// FixedBudget returns a constant budget function.
func FixedBudget(w float64) func(time.Duration) float64 {
	return func(time.Duration) float64 { return w }
}

// StepBudget returns a budget that switches from w1 to w2 at time t.
func StepBudget(w1, w2 float64, t time.Duration) func(time.Duration) float64 {
	return func(now time.Duration) float64 {
		if now < t {
			return w1
		}
		return w2
	}
}

// Unlimited returns an effectively infinite budget (all-Turbo baseline).
func Unlimited() func(time.Duration) float64 {
	return FixedBudget(1e12)
}

// Baseline runs the combo with every core pinned at Turbo and no budget;
// experiments use it as the 100%-power, 100%-performance reference.
func Baseline(lib *trace.Library, combo workload.Combo) (*Result, error) {
	n := combo.Cores()
	return Run(lib, combo, Options{
		Budget: Unlimited(),
		Policy: core.Fixed{Vector: modes.Uniform(n, modes.Turbo)},
	})
}
