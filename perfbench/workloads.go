package main

import (
	"fmt"
	"math"
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/experiment"
	"gpm/internal/fault"
	"gpm/internal/fleet"
	"gpm/internal/fullsim"
	"gpm/internal/modes"
	"gpm/internal/obs"
	"gpm/internal/solver"
	"gpm/internal/trace"
	"gpm/internal/workload"
)

// passesFor sizes a timed section: seconds of work at passSec per pass on
// the reference host, and never fewer than three passes, so every
// operation's fastest repetition is taken over at least three.
func passesFor(seconds int, passSec float64) int {
	return max(3, int(math.Round(float64(seconds)/passSec)))
}

// newEnv is a fresh experiment environment for n cores whose workload
// generator is seeded by the benchmark seed. Workers is 1: every timed loop
// runs on one goroutine.
func newEnv(n int, seed int64) *experiment.Env {
	cfg := config.Default(n)
	cfg.Sim.Seed = seed
	env := experiment.NewEnvWith(cfg)
	env.Workers = 1
	return env
}

// characterize profiles every distinct benchmark of the combos, in order.
func characterize(lib *trace.Library, combos ...workload.Combo) error {
	seen := map[string]bool{}
	for _, c := range combos {
		for _, b := range c.Benchmarks {
			if seen[b] {
				continue
			}
			seen[b] = true
			if _, err := lib.Profile(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// drive steps a cmpsim loop to completion — the exact cmpsim.Run sequence —
// and checks that an explore-boundary decision runs every dpe-th step. On an
// untimed replay rec is nil. On an untraced run each deciding StepDelta call
// is timed into rec.decisionUs; on a traced run the stepping as a whole is
// timed into the tracer with one clock pair, so per-step clock reads do not
// skew the split or the tracing overhead.
func drive(loop *engine.Loop, dpe int, rec *passRec, tr *tracer) (*engine.Result, error) {
	defer loop.Close()
	timeDecisions := rec != nil && tr == nil
	t0 := time.Now()
	for k := 0; ; k++ {
		decide := k%dpe == 0
		n0 := len(loop.Result().Modes)
		var s0 time.Time
		if decide && timeDecisions {
			s0 = time.Now()
		}
		done, err := loop.StepDelta()
		if decide && timeDecisions {
			rec.decisionUs = append(rec.decisionUs, float64(time.Since(s0).Nanoseconds())/1e3)
		}
		if err != nil {
			return nil, err
		}
		if decide != (len(loop.Result().Modes) == n0+1) {
			return nil, fmt.Errorf("step %d: explore-boundary decisions are not every %d steps", k, dpe)
		}
		if done {
			break
		}
	}
	if tr != nil {
		tr.stepNs += time.Since(t0).Nanoseconds()
	}
	res := loop.Finish()
	if rec != nil {
		rec.intervals += len(res.Modes)
	}
	if tr != nil {
		tr.intervals += len(res.Modes)
	}
	return res, nil
}

// runLoop builds and drives one cmpsim run as one timed operation,
// instrumented when tr is set.
func runLoop(lib *trace.Library, combo workload.Combo, opt cmpsim.Options, rec *passRec, tr *tracer) (*engine.Result, error) {
	opt = tr.instrument(opt)
	t0 := time.Now()
	var res *engine.Result
	loop, err := cmpsim.NewLoop(lib, combo, opt)
	if err == nil {
		res, err = drive(loop, lib.Config().DeltaPerExplore(), rec, tr)
	}
	rec.opNs = append(rec.opNs, time.Since(t0).Nanoseconds())
	if err != nil || tr == nil {
		return res, err
	}
	tr.timedOps++
	return res, tr.afterRun(lib, combo, res, opt.Policy)
}

// record checks one finished run and folds it into the pass.
func record(rec *passRec, key string, res, base *engine.Result) {
	rec.chk.op(key, sigOf(res, true), finiteResult(res))
	rec.outcome.addRun(res, base)
}

// countedSolver is the session-backed policy cmpsim.Options.Solver builds
// over s, with solver node counting wired.
func countedSolver(s solver.Solver) *core.SolverPolicy {
	p := core.NewSolverPolicy(s)
	p.NodeCount = new(int64)
	return p
}

// ---------------------------------------------------------------------------
// paper-sweep: what a user reproducing Figs 4–10 runs.
// ---------------------------------------------------------------------------

// paperNodeBudget bounds every supervised BB decision by search nodes, not
// wall time, so guarded runs repeat bit for bit.
const paperNodeBudget = 10_000

// paperBudgets span the paper's 60–100% budget axis in the 10% steps of
// `gpmsim -quick`, so a pass stays near a second and a run holds enough
// passes for its medians.
var paperBudgets = []float64{0.60, 0.70, 0.80, 0.90, 1.00}

type paperRun struct {
	key     string
	combo   workload.Combo
	base    *engine.Result
	budgetW float64
	policy  func() core.Policy
	guard   *core.GuardConfig
	fault   *fault.Scenario
	sup     *engine.SupervisorConfig
}

type paperSweep struct {
	env  *experiment.Env
	runs []paperRun
}

func (w *paperSweep) passes(seconds int) int { return passesFor(seconds, 0.9) }

func (w *paperSweep) setup(seed int64, sp *setupSplit) error {
	env := newEnv(4, seed)
	var combos []workload.Combo
	for _, n := range []int{2, 4, 8} {
		cs, err := workload.Combos(n)
		if err != nil {
			return err
		}
		combos = append(combos, cs...)
	}
	if err := timed(&sp.characterize, func() error { return characterize(env.Lib, combos...) }); err != nil {
		return err
	}
	bases := make([]*engine.Result, len(combos))
	for i, c := range combos {
		err := timed(&sp.baseline, func() (err error) {
			bases[i], err = env.Baseline(c)
			return err
		})
		if err != nil {
			return err
		}
	}
	plain := []func() core.Policy{
		func() core.Policy { return core.MaxBIPS{} },
		func() core.Policy { return core.Priority{} },
		func() core.Policy { return core.PullHiPushLo{} },
		func() core.Policy { return core.ChipWideDVFS{} },
		func() core.Policy { return core.Oracle{} },
	}
	guard := core.DefaultGuard()
	sup := &engine.SupervisorConfig{NodeBudget: paperNodeBudget}
	supervised := func() core.Policy {
		return countedSolver(solver.WithDeadline(&solver.BB{}, 0, paperNodeBudget))
	}
	var runs []paperRun
	for i, c := range combos {
		envW := bases[i].EnvelopePowerW()
		for _, mk := range plain {
			for _, f := range paperBudgets {
				runs = append(runs, paperRun{key: fmt.Sprintf("%s/%s/%.2f", c.ID, mk().Name(), f),
					combo: c, base: bases[i], budgetW: f * envW, policy: mk})
			}
		}
	}
	for i, c := range combos {
		if c.Cores() != 4 {
			continue
		}
		for j, f := range paperBudgets {
			sc := experiment.DefaultFaultProfile(0.05, seed*1_000+int64(100*i+j))
			runs = append(runs, paperRun{key: fmt.Sprintf("%s/guarded-bb/%.2f", c.ID, f),
				combo: c, base: bases[i], budgetW: f * bases[i].EnvelopePowerW(), policy: supervised,
				guard: &guard, fault: &sc, sup: sup})
		}
	}
	w.env, w.runs = env, runs
	return nil
}

func (w *paperSweep) options(r paperRun) cmpsim.Options {
	return cmpsim.Options{
		Budget:     cmpsim.FixedBudget(r.budgetW),
		Policy:     r.policy(),
		Predictor:  w.env.Predictor(),
		Horizon:    w.env.Cfg.Sim.Horizon,
		Guard:      r.guard,
		Fault:      r.fault,
		Supervisor: r.sup,
	}
}

func (w *paperSweep) pass(rec *passRec, tr *tracer) error {
	for _, r := range w.runs {
		res, err := runLoop(w.env.Lib, r.combo, w.options(r), rec, tr)
		if err != nil {
			rec.chk.opErr(r.key, err)
			continue
		}
		record(rec, r.key, res, r.base)
	}
	return nil
}

// cycleProbe steps the cycle-level chip on this workload's inputs: one
// fullsim-xcheck pass (the first 4-way combo, already characterized here)
// on this workload's environment. The traced run takes the fullsim split
// from it, so that layer is measured on a workload whose end-to-end rate is
// steady enough to gate; fullsim-xcheck's own rate is not (README).
func (w *paperSweep) cycleProbe(fs *tracer) error {
	x := &fullsimXcheck{env: w.env, combo: workload.FourWay[0]}
	return x.pass(&passRec{chk: fs.chk}, fs)
}

// check confirms that stepping a loop is the cmpsim.Run sequence: the first
// (plain) and the last (guarded) run, through cmpsim.Run, must match the
// passes.
func (w *paperSweep) check(chk *checker) {
	for _, r := range []paperRun{w.runs[0], w.runs[len(w.runs)-1]} {
		res, err := cmpsim.Run(w.env.Lib, r.combo, w.options(r))
		if err != nil {
			chk.opErr(r.key, err)
			continue
		}
		chk.op(r.key, sigOf(res, true), finiteResult(res))
	}
}

// ---------------------------------------------------------------------------
// manycore-1024: the session-backed hierarchical decision at 1024 cores.
// ---------------------------------------------------------------------------

type manycore struct {
	env    *experiment.Env
	combo  workload.Combo
	base   *engine.Result
	budget func(time.Duration) float64
}

func (w *manycore) passes(seconds int) int { return passesFor(seconds, 0.42) }

func (w *manycore) setup(seed int64, sp *setupSplit) error {
	env := newEnv(1024, seed)
	combo := experiment.ReplicatedCombo(1024)
	if err := timed(&sp.characterize, func() error { return characterize(env.Lib, combo) }); err != nil {
		return err
	}
	var base *engine.Result
	err := timed(&sp.baseline, func() (err error) {
		base, err = env.Baseline(combo)
		return err
	})
	if err != nil {
		return err
	}
	// A Fig 6-style budget drop, 90% → 60% of the envelope at mid-run: a
	// step beyond the loop's 25% warm-hint tolerance.
	e := base.EnvelopePowerW()
	*w = manycore{env: env, combo: combo, base: base,
		budget: cmpsim.StepBudget(0.90*e, 0.60*e, env.Cfg.Sim.Horizon/2)}
	return nil
}

func (w *manycore) options() cmpsim.Options {
	return cmpsim.Options{
		Budget:    w.budget,
		Policy:    countedSolver(&solver.Hier{}),
		Predictor: w.env.Predictor(),
		Horizon:   w.env.Cfg.Sim.Horizon,
	}
}

const manycoreKey = "1024w-replicated/maxbips-hier/step-90-60"

func (w *manycore) pass(rec *passRec, tr *tracer) error {
	res, err := runLoop(w.env.Lib, w.combo, w.options(), rec, tr)
	if err != nil {
		rec.chk.opErr(manycoreKey, err)
		return nil
	}
	record(rec, manycoreKey, res, w.base)
	return nil
}

// check confirms that stepping the loop is the cmpsim.Run sequence.
func (w *manycore) check(chk *checker) {
	res, err := cmpsim.Run(w.env.Lib, w.combo, w.options())
	if err != nil {
		chk.opErr(manycoreKey, err)
		return
	}
	chk.op(manycoreKey, sigOf(res, true), finiteResult(res))
}

// ---------------------------------------------------------------------------
// fleet-brownout: the `gpmsim fleet` scenario over seeds derived from the
// benchmark seed.
// ---------------------------------------------------------------------------

const (
	fleetScenarios = 32
	fleetChips     = 8
	fleetHorizon   = 20 * time.Millisecond
)

type fleetBrownout struct {
	env *experiment.Env
	// baseInstr is one chip's all-Turbo committed instructions over the
	// fleet horizon: the reference for throughput loss.
	baseInstr float64
	cfgs      []fleet.Config
	keys      []string
	// fleets are the next pass's scenarios. A Fleet is single-use: setup
	// builds the first pass's, and each later pass rebuilds its own
	// outside the measurement.
	fleets []*fleet.Fleet
}

func (w *fleetBrownout) passes(seconds int) int { return passesFor(seconds, 0.25) }

func (w *fleetBrownout) setup(seed int64, sp *setupSplit) error {
	env := newEnv(4, seed)
	combo := workload.FourWay[0]
	if err := timed(&sp.characterize, func() error { return characterize(env.Lib, combo) }); err != nil {
		return err
	}
	var base, short *engine.Result
	err := timed(&sp.baseline, func() (err error) {
		if base, err = env.Baseline(combo); err != nil {
			return err
		}
		short, err = env.ShortHorizon(fleetHorizon).Baseline(combo)
		return err
	})
	if err != nil {
		return err
	}
	// The facility cap is 90% of Σ chip envelopes, cut to 65% at mid-run.
	envelope := fleetChips * base.EnvelopePowerW()
	capW := func(now time.Duration) float64 {
		if now < fleetHorizon/2 {
			return 0.90 * envelope
		}
		return 0.65 * envelope
	}
	cfgs := make([]fleet.Config, fleetScenarios)
	keys := make([]string, fleetScenarios)
	for s := range cfgs {
		keys[s] = fmt.Sprintf("fleet/seed=%d", seed*1_000+int64(s))
		cfgs[s] = fleet.Config{
			Chips:        fleetChips,
			Combo:        combo,
			Horizon:      fleetHorizon,
			Seed:         seed*1_000 + int64(s),
			Workers:      1,
			FacilityCapW: capW,
			Policy:       "least-loaded",
			Cohorts: []fleet.Cohort{
				{Name: "interactive", Clients: 16, Process: "poisson",
					RatePerClient: 3000, CostInstr: 2e5, SLO: 2 * time.Millisecond,
					DiurnalAmp: 0.3, DiurnalPeriod: fleetHorizon},
				{Name: "batch", Clients: 8, Process: "gamma", Shape: 2,
					RatePerClient: 1200, CostInstr: 1e6, SLO: fleetHorizon / 2,
					DiurnalPhase: 0.5},
			},
		}
	}
	*w = fleetBrownout{env: env, baseInstr: short.TotalInstr, cfgs: cfgs, keys: keys}
	return timed(&sp.build, w.build)
}

// build constructs one pass's fleets.
func (w *fleetBrownout) build() error {
	w.fleets = make([]*fleet.Fleet, len(w.cfgs))
	for s, cfg := range w.cfgs {
		f, err := fleet.New(w.env.Lib, cfg)
		if err != nil {
			return err
		}
		w.fleets[s] = f
	}
	return nil
}

func (w *fleetBrownout) pass(rec *passRec, tr *tracer) error {
	if w.fleets == nil {
		if err := rec.untimed(w.build); err != nil {
			return err
		}
	}
	fleets := w.fleets
	w.fleets = nil
	for s, f := range fleets {
		key := w.keys[s]
		t0 := time.Now()
		res, err := f.Run()
		runNs := time.Since(t0).Nanoseconds()
		rec.opNs = append(rec.opNs, runNs)
		if err != nil {
			rec.chk.opErr(key, err)
			continue
		}
		ok := true
		var instr float64
		for _, cr := range res.ChipResults {
			rec.intervals += len(cr.Modes)
			rec.outcome.overDeltas += cr.OvershootIntervals
			rec.outcome.deltas += len(cr.ChipPowerW)
			instr += cr.TotalInstr
			ok = ok && finiteResult(cr)
		}
		rec.outcome.lossSum += 1 - instr/(float64(len(res.ChipResults))*w.baseInstr)
		rec.outcome.lossN++
		rec.outcome.arrived += res.Arrived
		for _, cs := range res.Cohorts {
			rec.outcome.attained += cs.AttainedSLO
		}
		rec.chk.op(key, fleetSig(res), ok)
		if tr != nil {
			if err := tr.fleet(w.env.Lib, w.cfgs[s], res, runNs); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *fleetBrownout) check(*checker) {}

// ---------------------------------------------------------------------------
// fullsim-xcheck: experiment.CrossSubstrate, run step by step so each run's
// Result is in hand, and checked against CrossSubstrate itself.
// ---------------------------------------------------------------------------

const (
	// xcheckIntervals is the interval count `gpmsim xcheck -quick` runs.
	xcheckIntervals = 10
	xcheckBudget    = 0.80
)

type fullsimXcheck struct {
	env   *experiment.Env
	combo workload.Combo
	rows  []experiment.CrossSubstrateRow // the first pass's rows
}

func (w *fullsimXcheck) passes(seconds int) int { return passesFor(seconds, 8.4) }

func (w *fullsimXcheck) setup(seed int64, sp *setupSplit) error {
	env := newEnv(4, seed)
	combo := workload.FourWay[0]
	if err := timed(&sp.characterize, func() error { return characterize(env.Lib, combo) }); err != nil {
		return err
	}
	*w = fullsimXcheck{env: env, combo: combo}
	return nil
}

// pass repeats CrossSubstrate's steps at one worker: the trace-substrate
// all-Turbo baseline fixes the budget, then the cycle-level baseline, then
// each policy on both substrates, every chip built and warmed fresh.
func (w *fullsimXcheck) pass(rec *passRec, tr *tracer) error {
	env, combo := w.env, w.combo
	n := combo.Cores()
	horizon := env.Cfg.Sim.Explore * xcheckIntervals
	turbo := core.Fixed{Vector: modes.Uniform(n, modes.Turbo)}
	traceRun := func(pol core.Policy, budget func(time.Duration) float64) (*engine.Result, error) {
		return runLoop(env.Lib, combo, cmpsim.Options{Budget: budget, Policy: pol, Predictor: env.Predictor(), Horizon: horizon}, rec, tr)
	}
	fullRun := func(pol core.Policy, budgetW float64) (*engine.Result, error) {
		t0 := time.Now()
		defer func() { rec.opNs = append(rec.opNs, time.Since(t0).Nanoseconds()) }()
		chip, err := fullsim.NewWithOptions(env.Cfg, env.Model, env.Plan, combo.Benchmarks, 0, nil, fullsim.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		chip.Warm(20_000)
		opt := fullsim.ManagedOptions{Policy: pol, BudgetW: budgetW, Intervals: xcheckIntervals}
		var res *engine.Result
		if tr != nil {
			res, err = tr.managed(env, chip, opt)
		} else {
			res, err = chip.Managed(opt)
		}
		if err != nil {
			return nil, err
		}
		rec.intervals += len(res.Modes)
		return res, nil
	}
	traceBase, err := traceRun(turbo, cmpsim.Unlimited())
	if err != nil {
		rec.chk.opErr("xcheck/trace/base", err)
		return nil
	}
	rec.chk.op("xcheck/trace/base", sigOf(traceBase, true), finiteResult(traceBase))
	budgetW := xcheckBudget * traceBase.EnvelopePowerW()
	fullBase, err := fullRun(turbo, 1e12)
	if err != nil {
		rec.chk.opErr("xcheck/full/base", err)
		return nil
	}
	rec.chk.op("xcheck/full/base", sigOf(fullBase, true), finiteResult(fullBase))
	var rows []experiment.CrossSubstrateRow
	for _, pol := range experiment.CrossSubstratePolicies() {
		tkey, fkey := "xcheck/trace/"+pol.Name(), "xcheck/full/"+pol.Name()
		tres, err := traceRun(pol, cmpsim.FixedBudget(budgetW))
		if err != nil {
			rec.chk.opErr(tkey, err)
			continue
		}
		rec.chk.op(tkey, sigOf(tres, true), finiteResult(tres))
		fres, err := fullRun(pol, budgetW)
		if err != nil {
			rec.chk.opErr(fkey, err)
			continue
		}
		record(rec, fkey, fres, fullBase)
		row := experiment.CrossSubstrateRow{
			Policy:   pol.Name(),
			TraceDeg: 1 - tres.TotalInstr/traceBase.TotalInstr,
			FullDeg:  1 - fres.TotalInstr/fullBase.TotalInstr,
		}
		row.DegGap = math.Abs(row.TraceDeg - row.FullDeg)
		rec.outcome.gapSum += row.DegGap
		rec.outcome.gapN++
		rows = append(rows, row)
	}
	if w.rows == nil {
		w.rows = rows
	}
	return nil
}

// check runs experiment.CrossSubstrate itself: its degradations must equal
// the step-by-step passes bit for bit.
func (w *fullsimXcheck) check(chk *checker) {
	const key = "xcheck/CrossSubstrate"
	got, err := w.env.CrossSubstrate(w.combo, xcheckBudget, xcheckIntervals, nil)
	if err != nil {
		chk.opErr(key, err)
		return
	}
	ok := len(got.Rows) == len(w.rows)
	for i := 0; ok && i < len(got.Rows); i++ {
		a, b := got.Rows[i], w.rows[i]
		ok = a.Policy == b.Policy && a.TraceDeg == b.TraceDeg && a.FullDeg == b.FullDeg && a.DegGap == b.DegGap
	}
	chk.attempted++
	if !ok {
		chk.fail("%s: rows differ from the step-by-step passes", key)
	}
}

// sigOf fingerprints a run: its golden Result fingerprint plus every
// session, guard and supervisor counter (solver nodes when counted), so a
// pass that reaches the same physics by a different decision path differs.
func sigOf(r *engine.Result, withNodes bool) uint64 {
	o := r.Obs
	h := newHash()
	h.add(obs.ResultFingerprint(r))
	for _, x := range []int64{int64(o.Decisions), int64(o.GuardOverrides), int64(o.WarmHints),
		o.SolverMemoHits, o.SolverWarmSolves, o.SolverHintReturns, o.SolverPruned,
		o.DirtyCores, o.DeltaSolves, o.DeltaCertified, o.DeltaFallbacks,
		int64(o.InvalidateBudgetStep), int64(o.InvalidateCoreDeath), int64(o.InvalidateEmergency), int64(o.InvalidateDegraded),
		int64(o.ConformanceRejects), int64(o.ConformanceRepairs), int64(o.DeadlineTimeouts), int64(o.WedgedDecisions),
		int64(o.DegradedDecisions), int64(o.LongestDegraded)} {
		h.add(uint64(x))
	}
	for _, r := range o.SupervisorRungs {
		h.add(uint64(r))
	}
	for _, s := range o.StageOverrides {
		h.add(uint64(s.Count))
	}
	if withNodes {
		h.add(uint64(o.SolverNodes))
	}
	return h.Sum64()
}

// fleetSig fingerprints a fleet scenario: fleet.Fingerprint plus each chip's
// counters (the fleet's chips do not count solver nodes).
func fleetSig(r *fleet.Result) uint64 {
	h := newHash()
	h.add(fleet.Fingerprint(r))
	for _, cr := range r.ChipResults {
		h.add(sigOf(cr, false))
	}
	return h.Sum64()
}

// wordHash is FNV-64a over little-endian uint64 words. It allocates
// nothing, so fingerprinting inside a pass leaves allocs_per_interval alone.
type wordHash struct{ sum uint64 }

func newHash() *wordHash { return &wordHash{sum: 14695981039346656037} }

func (h *wordHash) add(x uint64) {
	for i := 0; i < 8; i++ {
		h.sum ^= x >> (8 * i) & 0xff
		h.sum *= 1099511628211
	}
}

func (h *wordHash) Sum64() uint64 { return h.sum }
