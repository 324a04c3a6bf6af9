// Package fullsim is the cycle-level full-CMP simulator used to validate the
// trace-based analysis tool, mirroring §3.1's cross-check against a
// "cycle-accurate full-CMP implementation of Turandot" in the style of Li et
// al.: multiple uarch cores over one shared, banked L2 with bus contention,
// time-driven synchronization across per-core clock domains, and optional
// per-core DVFS under a global management policy.
//
// Cores may run at different frequency scales; simulation advances on a
// global time base measured in nominal-frequency cycles. A core at frequency
// scale f that has executed c local cycles sits at global time c/f.
package fullsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpm/internal/bpred"
	"gpm/internal/cache"
	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/obs"
	"gpm/internal/power"
	"gpm/internal/thermal"
	"gpm/internal/uarch"
	"gpm/internal/workload"
)

// coreStride separates per-core address spaces in the shared L2.
const coreStride uint64 = 1 << 40

// DefaultWindowCycles is the default synchronization-window length in global
// (nominal) cycles. Within a window cores step independently against frozen
// shared-L2 state (see cache.L2Window), so — unlike the old serial 20-cycle
// quantum — the window does not have to stay below the L2 service time; it
// only bounds how stale one core's view of the others' L2 traffic can be.
// 200 cycles is well under the per-delta management timescale (50k cycles)
// while keeping the per-window synchronization cost amortized.
const DefaultWindowCycles uint64 = 200

// Options tunes the simulation machinery without affecting results other
// than through WindowCycles (Workers never changes results).
type Options struct {
	// Workers is the number of goroutines stepping cores inside Advance.
	// 0 means GOMAXPROCS; 1 forces serial stepping. Results are bit-identical
	// for every value: the two-phase shared-L2 scheme resolves all cross-core
	// interaction in a canonical order.
	Workers int
	// WindowCycles is the synchronization-window length in global cycles
	// (0 = DefaultWindowCycles). Smaller windows tighten contention-visibility
	// latency; larger windows cut synchronization overhead.
	WindowCycles uint64
}

// Chip is a multi-core cycle-level simulation.
type Chip struct {
	cfg   config.Config
	model power.Model
	plan  modes.Plan

	l2         *cache.SharedL2
	cores      []*uarch.Core
	gens       []*workload.Generator
	hiers      []*cache.Hierarchy
	wins       []*cache.L2Window
	fscales    []float64
	invFscales []float64
	vector     modes.Vector
	benchmarks []string

	workers int
	window  uint64

	// globalNow is the frontier of simulated global time (nominal cycles).
	globalNow uint64
	// alive[i] is false once core i's stream ends (synthetic streams don't).
	// During a window, alive[i] is owned by the worker stepping core i.
	alive []bool

	// winScratch collects the windows begun in the current synchronization
	// window for Commit; mStarts/mActs are Measure's per-interval scratch.
	winScratch []*cache.L2Window
	mStarts    []uint64
	mActs      []power.Activity
}

// New builds a chip running the named benchmarks (one per core) at phase
// `phase` of each, starting with all cores in mode vector v (nil = all
// Turbo), with default Options.
func New(cfg config.Config, model power.Model, plan modes.Plan, benchmarks []string, phase int, v modes.Vector) (*Chip, error) {
	return NewWithOptions(cfg, model, plan, benchmarks, phase, v, Options{})
}

// NewWithOptions is New with explicit simulation-machinery options.
func NewWithOptions(cfg config.Config, model power.Model, plan modes.Plan, benchmarks []string, phase int, v modes.Vector, opt Options) (*Chip, error) {
	n := len(benchmarks)
	if n == 0 {
		return nil, fmt.Errorf("fullsim: no benchmarks")
	}
	if opt.Workers < 0 {
		return nil, &engine.OptionError{Component: "fullsim", Field: "Workers", Value: opt.Workers,
			Reason: "must be non-negative (0 = GOMAXPROCS)"}
	}
	if v == nil {
		v = modes.Uniform(n, modes.Turbo)
	}
	if len(v) != n {
		return nil, fmt.Errorf("fullsim: %d modes for %d cores", len(v), n)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := opt.WindowCycles
	if window == 0 {
		window = DefaultWindowCycles
	}
	ch := &Chip{
		cfg:        cfg,
		model:      model,
		plan:       plan,
		l2:         cache.NewSharedL2(cfg.Mem.L2, cfg.Mem.L2Banks, cfg.Mem.L2BusCyclesPerAccess),
		fscales:    make([]float64, n),
		invFscales: make([]float64, n),
		vector:     v.Clone(),
		alive:      make([]bool, n),
		benchmarks: append([]string(nil), benchmarks...),
		workers:    workers,
		window:     window,
		winScratch: make([]*cache.L2Window, 0, n),
		mStarts:    make([]uint64, n),
		mActs:      make([]power.Activity, n),
	}
	for i, name := range benchmarks {
		spec, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		gen := workload.NewGenerator(spec, phase, cfg.Sim.Seed+int64(i)*7919)
		gen.Relocate(uint64(i+1) * coreStride)
		hier := cache.NewHierarchy(cfg.Mem, ch.l2)
		pred := bpred.New(cfg.Core.BimodalEntries, cfg.Core.GshareEntries, cfg.Core.SelectorEntries, cfg.Core.GshareHistory)
		c := uarch.New(cfg, gen, hier, pred)
		f := plan.FreqScale(v[i])
		c.SetFreqScale(f)
		ch.fscales[i] = f
		ch.invFscales[i] = 1 / f
		idx := i
		c.GlobalCycle = func(local uint64) uint64 {
			// Multiply by the precomputed reciprocal: this runs on every
			// timed L2 access and fetch-block change.
			return uint64(float64(local) * ch.invFscales[idx])
		}
		ch.cores = append(ch.cores, c)
		ch.gens = append(ch.gens, gen)
		ch.hiers = append(ch.hiers, hier)
		ch.wins = append(ch.wins, ch.l2.NewWindow(i))
		ch.alive[i] = true
	}
	return ch, nil
}

// NumCores returns the chip width.
func (ch *Chip) NumCores() int { return len(ch.cores) }

// Vector returns the current mode vector.
func (ch *Chip) Vector() modes.Vector { return ch.vector.Clone() }

// SetVector switches cores to the modes in v (applied instantaneously; the
// caller accounts transition stalls).
func (ch *Chip) SetVector(v modes.Vector) {
	for i := range ch.cores {
		if v[i] != ch.vector[i] {
			f := ch.plan.FreqScale(v[i])
			ch.cores[i].SetFreqScale(f)
			ch.fscales[i] = f
			ch.invFscales[i] = 1 / f
		}
	}
	ch.vector = v.Clone()
}

// Warm pre-touches each core's data regions and runs a short instruction
// warmup, then clears all statistics.
func (ch *Chip) Warm(instr uint64) {
	block := ch.cfg.Mem.L1D.BlockSize
	iblock := ch.cfg.Mem.L1I.BlockSize
	for i, g := range ch.gens {
		code, hot, cold := g.Bases()
		spec := g.SpecOf()
		for off := 0; off < spec.HotSetBytes; off += block {
			ch.hiers[i].DataAccess(hot + uint64(off))
		}
		for off := 0; off < spec.ColdSetBytes; off += block {
			ch.hiers[i].DataAccess(cold + uint64(off))
		}
		for off := 0; off < spec.CodeFootprint; off += iblock {
			ch.hiers[i].InstrFetch(code + uint64(off))
		}
	}
	ch.Advance(instrGlobalGuess(instr))
	for i := range ch.cores {
		ch.cores[i].ResetCounters()
	}
	ch.l2.ResetStats()
}

// instrGlobalGuess converts an instruction warmup budget to a generous
// global-cycle allotment (IPC can sink well below 0.05 for memory-bound
// corners).
func instrGlobalGuess(instr uint64) uint64 { return instr * 32 }

// Advance runs all cores until global time advances by `globalCycles`,
// synchronizing at window boundaries. Within a window, cores step
// independently — concurrently when Workers > 1 — against shared-L2 state
// frozen at the window start; their deferred L2 traffic is then merged in a
// canonical order (see cache.SharedL2.Commit), so results are bit-identical
// for any worker count.
func (ch *Chip) Advance(globalCycles uint64) {
	target := ch.globalNow + globalCycles
	if ch.globalNow >= target {
		return
	}
	for i := range ch.hiers {
		ch.hiers[i].SetWindow(ch.wins[i])
	}
	for ch.globalNow < target {
		step := ch.globalNow + ch.window
		if step > target {
			step = target
		}
		ch.runWindow(step)
		ch.globalNow = step
	}
	for i := range ch.hiers {
		ch.hiers[i].SetWindow(nil)
	}
}

// localTarget converts a global window boundary to core i's local-cycle
// target.
func (ch *Chip) localTarget(i int, step uint64) uint64 {
	return uint64(math.Ceil(float64(step) * ch.fscales[i]))
}

// runWindow executes one synchronization window ending at global cycle step.
func (ch *Chip) runWindow(step uint64) {
	ch.winScratch = ch.winScratch[:0]
	for i := range ch.cores {
		if ch.alive[i] {
			ch.wins[i].Begin()
			ch.winScratch = append(ch.winScratch, ch.wins[i])
		}
	}
	live := len(ch.winScratch)
	if live == 0 {
		return
	}
	if w := min(ch.workers, live); w > 1 {
		// Workers claim cores via an atomic cursor; each alive[i] is written
		// only by the worker that claimed core i, and the barrier below
		// publishes everything before the single-threaded commit.
		var cursor atomic.Int64
		work := func() {
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(ch.cores) {
					return
				}
				if !ch.alive[i] {
					continue
				}
				if !ch.cores[i].Run(ch.localTarget(i, step)) {
					ch.alive[i] = false
				}
			}
		}
		var wg sync.WaitGroup
		wg.Add(w - 1)
		for k := 0; k < w-1; k++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
	} else {
		for i, c := range ch.cores {
			if !ch.alive[i] {
				continue
			}
			if !c.Run(ch.localTarget(i, step)) {
				ch.alive[i] = false
			}
		}
	}
	// Cores that died mid-window still committed their recorded traffic.
	ch.l2.Commit(ch.winScratch)
}

// Measure advances the chip by `globalCycles` of global time and returns the
// per-core activities for that window (local cycles measured per core). The
// returned slice is scratch reused by the next Measure call; callers that
// need the activities past that point must copy them.
func (ch *Chip) Measure(globalCycles uint64) []power.Activity {
	for i, c := range ch.cores {
		c.ResetCounters()
		ch.mStarts[i] = c.Frontier()
	}
	ch.Advance(globalCycles)
	for i, c := range ch.cores {
		ctr := c.Counters()
		elapsed := c.Frontier() - ch.mStarts[i]
		if elapsed == 0 {
			elapsed = 1
		}
		// Commit the measured local-cycle window into the counters so the
		// activity normalization matches the window length.
		ch.mActs[i] = activityWithCycles(c, ctr, elapsed)
	}
	return ch.mActs
}

// activityWithCycles recomputes the activity for a specific window length.
func activityWithCycles(c *uarch.Core, ctr uarch.Counters, cycles uint64) power.Activity {
	c.SetCounterCycles(cycles)
	return c.Activity()
}

// CorePowerW converts a measured activity into watts for core i's current
// mode.
func (ch *Chip) CorePowerW(i int, a power.Activity) float64 {
	return ch.model.CorePower(a, ch.plan, ch.vector[i])
}

// L2 exposes the shared L2 for contention statistics.
func (ch *Chip) L2() *cache.SharedL2 { return ch.l2 }

// Park permanently idles core i: it stops advancing and consumes no further
// simulated time. The engine parks cores the fault injector declares dead so
// the simulated physics match what the (guarded) manager believes.
func (ch *Chip) Park(i int) { ch.alive[i] = false }

// substrate adapts the cycle-level chip to the engine's Substrate interface.
// Unlike the trace players it cannot peek at alternate futures, so
// ModePowerW estimates a mode's power by rescaling the core's last measured
// draw with the analytical DVFS scale law — exactly the §5.5 prediction the
// manager itself uses.
type substrate struct {
	ch     *Chip
	freqHz float64
	// exploreGlobal is the bootstrap probe length in global cycles.
	exploreGlobal uint64
	// lastP[c] is core c's last measured power, at the mode it was measured
	// in; parked[c] marks cores the engine declared dead (as opposed to
	// cores whose instruction stream ended, which §5.1 treats as completed).
	lastP  []float64
	parked []bool
}

func newSubstrate(ch *Chip) *substrate {
	return &substrate{
		ch:            ch,
		freqHz:        ch.cfg.Chip.NominalFreqHz,
		exploreGlobal: uint64(ch.cfg.Sim.Explore.Seconds() * ch.cfg.Chip.NominalFreqHz),
		lastP:         make([]float64, ch.NumCores()),
		parked:        make([]bool, ch.NumCores()),
	}
}

func (s *substrate) NumCores() int { return s.ch.NumCores() }

func (s *substrate) Bootstrap() []core.Sample {
	acts := s.ch.Measure(s.exploreGlobal)
	out := make([]core.Sample, len(acts))
	for i, a := range acts {
		p := s.ch.CorePowerW(i, a)
		s.lastP[i] = p
		out[i] = core.Sample{PowerW: p, Instr: float64(a.Committed)}
	}
	return out
}

func (s *substrate) ModePowerW(c int, m modes.Mode) float64 {
	cur := s.ch.vector[c]
	if m == cur {
		return s.lastP[c]
	}
	ref := s.ch.model.ScaleLaw(s.ch.plan, cur)
	if ref <= 0 {
		return s.lastP[c]
	}
	return s.lastP[c] * s.ch.model.ScaleLaw(s.ch.plan, m) / ref
}

func (s *substrate) DeltaStep(v modes.Vector, execSec float64, live []bool, energyJ, instr []float64) (completed bool) {
	s.ch.SetVector(v)
	for c := range live {
		if !live[c] && !s.parked[c] && s.ch.alive[c] {
			s.ch.Park(c)
			s.parked[c] = true
		}
	}
	// Rounding global cycles per delta (rather than per explore interval)
	// accumulates a sub-cycle truncation per delta; see EXPERIMENTS.md.
	acts := s.ch.Measure(uint64(math.Round(execSec * s.freqHz)))
	for c, a := range acts {
		if !live[c] {
			continue
		}
		p := s.ch.CorePowerW(c, a)
		s.lastP[c] = p
		energyJ[c] = p * execSec
		instr[c] = float64(a.Committed)
		completed = completed || s.Finished(c)
	}
	return completed
}

func (s *substrate) Finished(c int) bool { return !s.ch.alive[c] && !s.parked[c] }

// Lookahead returns nil: the cycle-level chip cannot probe alternate futures.
func (s *substrate) Lookahead() func(c int, m modes.Mode) (float64, float64) { return nil }

func (s *substrate) MemBound() []float64 { return nil }

// ManagedOptions configures a managed cycle-level run. Policy and Intervals
// are required; exactly one of Budget and BudgetW must be set.
type ManagedOptions struct {
	// Policy decides mode vectors at explore boundaries.
	Policy core.Policy
	// Budget is the chip power budget at simulated time t; when nil, the
	// constant BudgetW is used.
	Budget  func(t time.Duration) float64
	BudgetW float64
	// Intervals is the number of explore intervals to simulate.
	Intervals int
	// Thermal, Fault and Guard mirror cmpsim.Options: thermal governor in
	// the clamp stage, deterministic fault injection on the observation
	// path, and the engine's guard around the manager.
	Thermal *thermal.Governor
	Fault   *fault.Scenario
	Guard   *core.GuardConfig
	// History mirrors cmpsim.Options.History: wrap the run's predictor in a
	// history-table phase predictor. Incompatible with Replay.
	History *core.HistoryConfig
	// Supervisor mirrors cmpsim.Options.Supervisor: arms the guard's
	// decision supervisor (deadline-bounded solving, degradation ladder,
	// conformance gate). Incompatible with Replay.
	Supervisor *engine.SupervisorConfig
	// Observer mirrors cmpsim.Options.Observer: one structured decision
	// trace per explore interval (nil = zero overhead).
	Observer engine.Observer
	// Replay mirrors cmpsim.Options.Replay: re-drive the chip from a
	// recorded trace's vectors and budgets instead of a policy — including a
	// trace recorded on the *other* substrate, which is how a cmpsim-vs-
	// fullsim divergence is isolated to physics rather than decisions.
	// Policy becomes optional; Intervals is still required (the cycle-level
	// chip has no horizon of its own).
	Replay *obs.Trace
}

// Managed runs the chip under the engine's global-manager control loop —
// the same loop, middleware chain and accounting as cmpsim.Run — for
// opt.Intervals explore intervals. The chip is forced to all-Turbo for the
// bootstrap probe; transition stalls are charged at the §5.1 worst-case
// endpoint power over the stall window, with execution advancing only
// through the remainder of each delta interval.
func (ch *Chip) Managed(opt ManagedOptions) (*engine.Result, error) {
	replaying := opt.Replay != nil
	if opt.Policy == nil && !replaying {
		return nil, &engine.OptionError{Component: "fullsim", Field: "Policy", Value: nil, Reason: "required"}
	}
	if opt.Intervals <= 0 {
		return nil, &engine.OptionError{Component: "fullsim", Field: "Intervals", Value: opt.Intervals, Reason: "must be positive"}
	}
	if opt.Supervisor != nil {
		if replaying {
			return nil, &engine.OptionError{Component: "fullsim", Field: "Supervisor", Value: "non-nil",
				Reason: "incompatible with Replay: recorded vectors must actuate verbatim"}
		}
		if err := opt.Supervisor.Validate("fullsim"); err != nil {
			return nil, err
		}
	}
	if opt.History != nil {
		if replaying {
			return nil, &engine.OptionError{Component: "fullsim", Field: "History", Value: "non-nil",
				Reason: "incompatible with Replay: recorded vectors must actuate verbatim"}
		}
		if err := opt.History.Validate(); err != nil {
			return nil, &engine.OptionError{Component: "fullsim", Field: "History", Value: "", Reason: err.Error()}
		}
	}
	budget := opt.Budget
	if budget == nil {
		w := opt.BudgetW
		budget = func(time.Duration) float64 { return w }
	}
	n := ch.NumCores()
	var inj *fault.Injector
	if opt.Fault != nil && opt.Fault.Enabled() {
		var err error
		inj, err = fault.NewInjector(*opt.Fault, n)
		if err != nil {
			return nil, err
		}
	}
	pred := core.Predictor{
		Plan:              ch.plan,
		PowerScale:        func(m modes.Mode) float64 { return ch.model.ScaleLaw(ch.plan, m) },
		ExploreSeconds:    ch.cfg.Sim.Explore.Seconds(),
		DerateTransitions: true,
	}
	ch.SetVector(modes.Uniform(n, modes.Turbo))
	eopt := engine.Options{
		Plan:             ch.plan,
		Budget:           budget,
		DeltaSim:         ch.cfg.Sim.DeltaSim,
		DeltasPerExplore: ch.cfg.DeltaPerExplore(),
		Explore:          ch.cfg.Sim.Explore,
		Horizon:          ch.cfg.Sim.Explore * time.Duration(opt.Intervals),
		Thermal:          opt.Thermal,
		Injector:         inj,
		Observer:         opt.Observer,
		ErrPrefix:        "fullsim",
		Combo:            workload.Combo{ID: "fullsim", Benchmarks: ch.benchmarks},
	}
	if replaying {
		dec, err := obs.NewReplayDecider(opt.Replay, ch.cfg.Sim.Explore)
		if err != nil {
			return nil, err
		}
		eopt.Decider = dec
		eopt.Stages = []engine.Stage{obs.NewReplayBudget(opt.Replay)}
		eopt.PolicyName = opt.Replay.PolicyName()
	} else {
		var mp core.MatrixPredictor = pred
		if opt.History != nil {
			mp = core.NewHistoryPredictor(pred, *opt.History)
		}
		eopt.Decider = engine.NewDecider(ch.plan, opt.Policy, mp, n, opt.Guard, opt.Supervisor, inj)
		eopt.PolicyName = opt.Policy.Name()
	}
	return engine.Run(newSubstrate(ch), eopt)
}

// RunManaged runs the chip under a global power manager for `intervals`
// explore intervals at a constant budget — a thin adapter over Managed for
// the common unfaulted case. The Result's ChipPowerW series is at delta-sim
// resolution; use Result.ExploreChipPowerW(cfg.DeltaPerExplore()) for
// per-explore-interval averages.
func (ch *Chip) RunManaged(policy core.Policy, budgetW float64, intervals int) (*engine.Result, error) {
	return ch.Managed(ManagedOptions{Policy: policy, BudgetW: budgetW, Intervals: intervals})
}
