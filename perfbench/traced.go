package main

import (
	"math"
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/experiment"
	"gpm/internal/fleet"
	"gpm/internal/fullsim"
	"gpm/internal/modes"
	"gpm/internal/solver"
	"gpm/internal/trace"
	"gpm/internal/workload"
)

// layerObs is the traced run's engine.Observer: it sums the engine's own
// per-decision timings and keeps nothing else.
type layerObs struct {
	decisions          int
	decideNs, stagesNs int64
}

func (o *layerObs) Decision(t *engine.DecisionTrace) {
	o.decisions++
	o.decideNs += t.DecideNs
	for _, s := range t.Stages {
		o.stagesNs += s.DurNs
	}
}

func (o *layerObs) RunEnd(*engine.Result) {}

// timedPolicy times Policy.Decide from outside.
type timedPolicy struct {
	core.Policy
	ns *int64
}

func (p timedPolicy) Decide(ctx core.Context) modes.Vector {
	t0 := time.Now()
	v := p.Policy.Decide(ctx)
	*p.ns += time.Since(t0).Nanoseconds()
	return v
}

// timedSolverPolicy times a session-backed policy. Embedding the pointer
// keeps every session method the engine looks for (EnsureSession,
// InvalidateSession, SessionStats, SolveNodes), so the wrapped policy takes
// the same decision path as the bare one.
type timedSolverPolicy struct {
	*core.SolverPolicy
	ns *int64
}

func (p timedSolverPolicy) Decide(ctx core.Context) modes.Vector {
	t0 := time.Now()
	v := p.SolverPolicy.Decide(ctx)
	*p.ns += time.Since(t0).Nanoseconds()
	return v
}

// tracer instruments traced passes and accumulates the per-layer split
// across them. Its replays run after the operation they replay has been
// timed, so the overhead comparison sees the same work as an untraced pass.
type tracer struct {
	chk *checker
	obs layerObs

	policyNs  int64 // Σ Policy.Decide
	stepNs    int64 // Σ stepping time of traced loops (Managed time on cycle-level runs)
	intervals int   // explore intervals on traced loops
	timedOps  int   // timed operations that ran instrumented

	// Result.Obs counters of traced runs; sess* cover session-backed runs.
	decisions, warmHints, invals, degraded, guardOverrides int
	sessDecisions                                          int
	nodes, memoHits, warmFloored, dirty, deltas, certified int64

	advanceNs        int64 // Σ trace.Player.Advance replay loops
	advanceIntervals int

	fleetRunNs, fleetReplayNs int64
	chipIntervals             int
	epochs, solvedEpochs      int

	managedNs, managedDecideNs int64
	probeCycles, execCycles    float64
	instr                      float64
	l2Acc, l2Miss, l2Wait      uint64
}

// instrument attaches the tracer's observer and policy wrapper to a cmpsim
// run's options; a nil tracer leaves them as they are.
func (t *tracer) instrument(opt cmpsim.Options) cmpsim.Options {
	if t != nil {
		opt.Policy = t.wrap(opt.Policy)
		opt.Observer = &t.obs
	}
	return opt
}

// afterRun takes a traced cmpsim run's counters and replays its players.
func (t *tracer) afterRun(lib *trace.Library, combo workload.Combo, res *engine.Result, pol core.Policy) error {
	t.absorb(res, pol)
	return t.replayPlayers(lib, combo, res)
}

func (t *tracer) wrap(p core.Policy) core.Policy {
	if sp, ok := p.(*core.SolverPolicy); ok {
		return timedSolverPolicy{sp, &t.policyNs}
	}
	return timedPolicy{p, &t.policyNs}
}

// absorb folds a traced run's engine counters into the split.
func (t *tracer) absorb(r *engine.Result, pol core.Policy) {
	o := r.Obs
	t.decisions += o.Decisions
	t.warmHints += o.WarmHints
	t.invals += o.InvalidateBudgetStep + o.InvalidateCoreDeath + o.InvalidateEmergency + o.InvalidateDegraded
	t.degraded += o.DegradedDecisions
	t.guardOverrides += o.GuardOverrides
	if _, ok := pol.(timedSolverPolicy); ok {
		t.sessDecisions += o.Decisions
		t.nodes += o.SolverNodes
		t.memoHits += o.SolverMemoHits
		t.warmFloored += o.SolverWarmSolves
		t.dirty += o.DirtyCores
		t.deltas += o.DeltaSolves
		t.certified += o.DeltaCertified
	}
}

// execWindows walks a finished run's delta intervals with the §5.1 stall
// schedule the engine applies: each explore boundary's worst-case transition
// stalls every core from the start of the interval, and a delta executes
// only in what the stall leaves of it. fn sees each executing delta's vector
// and execution seconds.
func execWindows(plan modes.Plan, cfg config.Config, res *engine.Result, fn func(v modes.Vector, execSec float64)) {
	dpe, deltaSec := cfg.DeltaPerExplore(), cfg.Sim.DeltaSim.Seconds()
	cur := modes.Uniform(len(res.PerCoreInstr), modes.Turbo)
	deltas := len(res.ChipPowerW)
	for k, v := range res.Modes {
		stall := plan.MaxTransitionBetween(cur, v).Seconds()
		cur = v
		for d := k * dpe; d < (k+1)*dpe && d < deltas; d++ {
			stl := math.Min(stall, deltaSec)
			stall -= stl
			if exec := deltaSec - stl; exec > 0 {
				fn(v, exec)
			}
		}
	}
}

// replayPlayers re-advances fresh trace players through a finished run's
// mode vectors and stall schedule, timing the Advance loop. The replayed
// per-core instruction totals must equal the run's bit for bit, or the
// replay no longer measures what the run did.
func (t *tracer) replayPlayers(lib *trace.Library, combo workload.Combo, res *engine.Result) error {
	players, err := lib.Players(combo)
	if err != nil {
		return err
	}
	instr := make([]float64, len(players))
	a0 := time.Now()
	execWindows(lib.Plan(), lib.Config(), res, func(v modes.Vector, execSec float64) {
		for c, pl := range players {
			if !pl.Completed() {
				_, in := pl.Advance(v[c], execSec)
				instr[c] += in
			}
		}
	})
	t.advanceNs += time.Since(a0).Nanoseconds()
	t.advanceIntervals += len(res.Modes)
	for c := range instr {
		if instr[c] != res.PerCoreInstr[c] {
			t.chk.fail("%s/%s: player replay of core %d committed %v instructions, the run %v", combo.ID, res.Policy, c, instr[c], res.PerCoreInstr[c])
			break
		}
	}
	return nil
}

// fleet splits one fleet scenario: every chip is replayed through
// cmpsim.NewLoop on its recorded budgets with the options the fleet builds
// chips with — once bare (fleet.engine_us) and once traced (the decision
// split) — and each replay must reproduce the chip bit for bit.
func (t *tracer) fleet(lib *trace.Library, cfg fleet.Config, res *fleet.Result, runNs int64) error {
	t.fleetRunNs += runNs
	for _, e := range res.EpochLog {
		t.epochs++
		if !e.SolveSkipped {
			t.solvedEpochs++
		}
	}
	for i, cr := range res.ChipResults {
		want := sigOf(cr, false)
		bare, ns, err := replayChip(lib, cfg, cr, nil)
		if err != nil {
			return err
		}
		t.fleetReplayNs += ns
		t.chipIntervals += len(cr.Modes)
		traced, _, err := replayChip(lib, cfg, cr, t)
		if err != nil {
			return err
		}
		if sigOf(bare, false) != want || sigOf(traced, false) != want {
			t.chk.fail("fleet/seed=%d chip %d: replay differs from the fleet's chip result", cfg.Seed, i)
		}
	}
	return nil
}

// replayChip re-runs one fleet chip on the budgets it was granted,
// instrumented when tr is set, and returns the host time of stepping the
// loop alone: fleet.New builds a fleet's chips before Fleet.Run, so building
// the loop is no part of the time the replay stands in for.
func replayChip(lib *trace.Library, cfg fleet.Config, cr *engine.Result, tr *tracer) (*engine.Result, int64, error) {
	model, plan := lib.Model(), lib.Plan()
	deltaSim := lib.Config().Sim.DeltaSim
	opt := cmpsim.Options{
		Budget: func(now time.Duration) float64 {
			i := int(now / deltaSim)
			if i >= len(cr.BudgetW) {
				i = len(cr.BudgetW) - 1
			}
			return cr.BudgetW[i]
		},
		Policy:  countedSolver(&solver.BB{}),
		Horizon: cfg.Horizon,
		Predictor: core.Predictor{
			Plan:           plan,
			PowerScale:     func(m modes.Mode) float64 { return model.ScaleLaw(plan, m) },
			ExploreSeconds: lib.Config().Sim.Explore.Seconds(),
		},
	}
	opt = tr.instrument(opt)
	loop, err := cmpsim.NewLoop(lib, cfg.Combo, opt)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	res, err := drive(loop, lib.Config().DeltaPerExplore(), nil, tr)
	ns := time.Since(t0).Nanoseconds()
	if err != nil || tr == nil {
		return res, ns, err
	}
	return res, ns, tr.afterRun(lib, cfg.Combo, res, opt.Policy)
}

// managed runs one traced cycle-level run and takes the fullsim split.
func (t *tracer) managed(env *experiment.Env, chip *fullsim.Chip, opt fullsim.ManagedOptions) (*engine.Result, error) {
	opt.Policy = t.wrap(opt.Policy)
	opt.Observer = &t.obs
	d0 := t.obs.decideNs
	t0 := time.Now()
	res, err := chip.Managed(opt)
	ns := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	t.timedOps++
	t.managedNs += ns
	t.managedDecideNs += t.obs.decideNs - d0
	t.stepNs += ns
	t.intervals += len(res.Modes)
	probe, exec := coreCycles(env.Cfg, env.Plan, res)
	t.probeCycles += probe
	t.execCycles += exec
	t.instr += res.TotalInstr
	acc, miss := chip.L2().Stats()
	_, wait := chip.L2().Contention()
	t.l2Acc += acc
	t.l2Miss += miss
	t.l2Wait += wait
	t.absorb(res, opt.Policy)
	return res, nil
}

// coreCycles counts the core-cycles a cycle-level run simulated, the way the
// chip steps them: each core runs its mode's share (Plan.FreqScale) of the
// global cycles the chip advances. probe is the all-Turbo explore interval
// Managed simulates before the first decision; exec is every delta's
// execution window, rounded to whole global cycles as the chip rounds it
// (transition stalls do not advance the chip).
func coreCycles(cfg config.Config, plan modes.Plan, res *engine.Result) (probe, exec float64) {
	freq := cfg.Chip.NominalFreqHz
	n := float64(len(res.PerCoreInstr))
	probe = float64(uint64(cfg.Sim.Explore.Seconds()*freq)) * plan.FreqScale(modes.Turbo) * n
	execWindows(plan, cfg, res, func(v modes.Vector, execSec float64) {
		g := math.Round(execSec * freq)
		for _, m := range v {
			exec += g * plan.FreqScale(m)
		}
	})
	return probe, exec
}

// runTraced is the traced run: the same setup and the same passes as an
// untraced run, alternating bare and traced passes, so the tracing overhead
// is measured back to back. Every traced operation must reproduce its bare
// fingerprint and session counters.
func runTraced(name string, seed int64, passes int, info map[string]any) (*result, error) {
	var sp setupSplits
	w, _, _, err := setupMedian(name, seed, &sp)
	if err != nil {
		return nil, err
	}
	// Bare and traced passes alternate, in equal numbers, so the overhead
	// compares like with like.
	passes += passes % 2
	info["passes"] = passes
	var chk checker
	tr := &tracer{chk: &chk}
	var bareOps, tracedOps [][]int64
	perPass := 0
	for p := 0; p < passes; p++ {
		rec := &passRec{chk: &chk}
		if p%2 == 0 {
			if err := w.pass(rec, nil); err != nil {
				return nil, err
			}
			bareOps = append(bareOps, rec.opNs)
		} else {
			if err := w.pass(rec, tr); err != nil {
				return nil, err
			}
			tracedOps = append(tracedOps, rec.opNs)
		}
		perPass = rec.intervals
	}
	w.check(&chk)
	if tr.obs.decisions == 0 {
		chk.fail("traced passes made no decision")
	}
	// The fullsim split comes from the workload's own cycle-level runs, or
	// from paper-sweep's cycle-level probe, traced apart so the probe leaves
	// the workload's own split alone.
	fs := tr
	if ps, ok := w.(*paperSweep); ok {
		fs = &tracer{chk: &chk}
		if err := ps.cycleProbe(fs); err != nil {
			return nil, err
		}
	}

	us := func(ns int64, n int) float64 { return ratio(float64(ns)/1e3, float64(n)) }
	interval := us(tr.stepNs, tr.intervals)
	decide := us(tr.obs.decideNs, tr.obs.decisions)
	stages := us(tr.obs.stagesNs, tr.obs.decisions)
	policy := us(tr.policyNs, tr.obs.decisions)
	dec, sess := float64(tr.decisions), float64(tr.sessDecisions)
	overhead := 0.0
	if tr.timedOps > 0 {
		overhead = 100 * (1 - opRate(perPass, tracedOps)/opRate(perPass, bareOps))
	} else {
		info["trace_overhead"] = "0 by construction: no timed operation runs instrumented (fleet.Fleet takes no observer, so traced and bare passes time the same Fleet.Run)"
	}
	m := map[string]metric{
		"trace.characterize_s":               {median(sp.characterize), "s"},
		"experiment.baseline_s":              {median(sp.baseline), "s"},
		"fleet.build_s":                      {median(sp.build), "s"},
		"engine.interval_us":                 {interval, "us"},
		"engine.decide_us":                   {decide, "us"},
		"engine.stages_us":                   {stages, "us"},
		"engine.rest_us":                     {interval - decide - stages, "us"},
		"engine.warm_hint_ratio":             {ratio(float64(tr.warmHints), dec), "ratio"},
		"engine.invalidations_per_kdecision": {1000 * ratio(float64(tr.invals), dec), "count"},
		"engine.degraded_ratio":              {ratio(float64(tr.degraded), dec), "ratio"},
		"core.policy_us":                     {policy, "us"},
		"core.manager_us":                    {decide - policy, "us"},
		"core.guard_override_ratio":          {ratio(float64(tr.guardOverrides), dec), "ratio"},
		"solver.nodes_per_decision":          {ratio(float64(tr.nodes), sess), "count"},
		"solver.memo_hit_ratio":              {ratio(float64(tr.memoHits), sess), "ratio"},
		"solver.delta_certified_ratio":       {ratio(float64(tr.certified), float64(tr.deltas)), "ratio"},
		"solver.warm_floor_ratio":            {ratio(float64(tr.warmFloored), sess), "ratio"},
		"solver.dirty_cores_per_decision":    {ratio(float64(tr.dirty), sess), "count"},
		"trace.advance_us":                   {us(tr.advanceNs, tr.advanceIntervals), "us"},
		"fleet.engine_us":                    {us(tr.fleetReplayNs, tr.chipIntervals), "us"},
		"fleet.serving_us":                   {us(tr.fleetRunNs-tr.fleetReplayNs, tr.chipIntervals), "us"},
		"fleet.epoch_solve_ratio":            {ratio(float64(tr.solvedEpochs), float64(tr.epochs)), "ratio"},
		"fullsim.ns_per_core_cycle":          {ratio(float64(fs.managedNs-fs.managedDecideNs), fs.probeCycles+fs.execCycles), "ns"},
		"fullsim.ipc":                        {ratio(fs.instr, fs.execCycles), "instr/cycle"},
		"fullsim.l2_miss_ratio":              {ratio(float64(fs.l2Miss), float64(fs.l2Acc)), "ratio"},
		"fullsim.l2_wait_cycles_per_access":  {ratio(float64(fs.l2Wait), float64(fs.l2Acc)), "cycles"},
		"obs.trace_overhead_pct":             {overhead, "%"},
	}
	info["traced_passes"] = len(tracedOps)
	info["bare_passes"] = len(bareOps)
	info["traced_decisions"] = tr.obs.decisions
	return chk.result(m), nil
}
