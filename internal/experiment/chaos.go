package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/fault"
	"gpm/internal/fullsim"
	"gpm/internal/obs"
	"gpm/internal/pool"
	"gpm/internal/workload"
)

// ---------------------------------------------------------------------------
// R2: chaos soak. The guard's decision supervisor (engine.SupervisorConfig)
// promises that no matter what the fault injectors do to the telemetry, the
// budget or the decision path, every actuated vector conforms to the budget
// under the decision's predictions and the system recovers once faults
// clear.
// This harness runs seeded randomized fault schedules — composed
// internal/fault injectors with random onset and duration — against invariant
// monitors, across policies × budgets on both substrates, and reports MTTR,
// overshoot histograms and per-rung hit rates. A violation is a bug in the
// supervisor, not a property of the workload.
// ---------------------------------------------------------------------------

// Histogram is a fixed-bucket histogram: Bounds[i] is bucket i's inclusive
// upper bound, with one extra overflow bucket at the end. The zero value is
// unusable; build with NewHistogram.
type Histogram struct {
	Bounds []float64
	Counts []int
	N      int
	Sum    float64
	Max    float64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: make([]int, len(bounds)+1)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := 0
	for i < len(h.Bounds) && x > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.N++
	h.Sum += x
	if x > h.Max {
		h.Max = x
	}
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Merge folds another histogram with identical bounds into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.N += o.N
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// ChaosOptions tunes the soak.
type ChaosOptions struct {
	// Seed is the base PRNG seed; every fault schedule derives its own from
	// it, so the whole soak is reproducible. Default 1.
	Seed int64
	// Runs is the number of randomized fault schedules per
	// (policy × budget) cell. Default 2.
	Runs int
	// Intervals is the explore-interval horizon of each trace-substrate run.
	// Default 25.
	Intervals int
	// Policies is the policy set. Default MaxBIPS, GreedyMaxBIPS and the
	// hysteresis StableMaxBIPS (whose hold-last-vector behaviour is exactly
	// what the conformance gate exists to catch during brownouts). Stateful
	// policies are shared across concurrent runs; pass Parallel: 1 when
	// supplying one that is not safe to share.
	Policies []core.Policy
	// Budgets are budget fractions of the combo's envelope power.
	// Default {0.60, 0.80}.
	Budgets []float64
	// Deadline, when positive, arms the wall-clock watchdog and adds wedged
	// solver-stall windows to the fault schedules. Wall-clock deadlines are
	// nondeterministic, so the bit-identical-rerun monitor is skipped.
	Deadline time.Duration
	// RecoverK is the recovery bound: after the last transient fault window
	// clears, the supervisor must be back on rung 0 within RecoverK explore
	// intervals. Default 8.
	RecoverK int
	// Fullsim adds one cycle-level run per (policy × budget) cell over
	// FullsimIntervals explore intervals (default 6). The chip width is
	// e.Cfg.Chip.NumCores, which must match the combo.
	Fullsim          bool
	FullsimIntervals int
	// Parallel bounds concurrent runs. Default Env.Workers.
	Parallel int
	// CheckDeterminism reruns every cell and requires bit-identical result
	// and trace fingerprints (skipped when Deadline > 0). Default on for
	// Deadline == 0; set SkipDeterminism to disable.
	SkipDeterminism bool
}

// ChaosRow summarizes one (substrate, policy, budget) cell of the soak.
type ChaosRow struct {
	Substrate  string
	Policy     string
	BudgetFrac float64
	Decisions  int
	RungHits   [4]int
	Rejects    int
	Repairs    int
	Timeouts   int
	Wedged     int
	Violations int
}

// ChaosReport aggregates the soak: per-rung hit rates, conformance-gate
// activity, recovery latency and physical-overshoot histograms, and the
// invariant violations (empty on a healthy supervisor).
type ChaosReport struct {
	Runs      int
	Decisions int
	RungHits  [4]int
	Rejects   int
	Repairs   int
	Timeouts  int
	Wedged    int
	// MTTR is the distribution of degraded-episode lengths in explore
	// intervals (time from first rung>0 decision to the next rung-0
	// decision).
	MTTR *Histogram
	// OvershootW / OvershootLen are the physical budget-overshoot
	// magnitude (watts over budget) and duration (delta intervals)
	// distributions — report-only: transient physical overshoot between
	// explore boundaries is the guard's territory, while the supervisor's
	// invariant is about what it knowingly actuates.
	OvershootW   *Histogram
	OvershootLen *Histogram
	Rows         []ChaosRow
	// Violations are invariant failures: conformance breaches, non-finite
	// reported metrics, recovery-bound misses, determinism breaks.
	Violations []string
}

func newChaosReport() *ChaosReport {
	return &ChaosReport{
		MTTR:         NewHistogram(1, 2, 4, 8, 16),
		OvershootW:   NewHistogram(1, 5, 10, 20, 50),
		OvershootLen: NewHistogram(1, 5, 10, 25, 50),
	}
}

func (r *ChaosReport) merge(o *ChaosReport) {
	r.Runs += o.Runs
	r.Decisions += o.Decisions
	for i := range o.RungHits {
		r.RungHits[i] += o.RungHits[i]
	}
	r.Rejects += o.Rejects
	r.Repairs += o.Repairs
	r.Timeouts += o.Timeouts
	r.Wedged += o.Wedged
	r.MTTR.Merge(o.MTTR)
	r.OvershootW.Merge(o.OvershootW)
	r.OvershootLen.Merge(o.OvershootLen)
	r.Violations = append(r.Violations, o.Violations...)
}

// Err returns a non-nil error when any invariant was violated, so callers
// (gpmsim chaos, CI) can gate on the soak with one check.
func (r *ChaosReport) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("chaos soak: %d invariant violation(s); first: %s", len(r.Violations), r.Violations[0])
}

// chaosScenario draws one randomized fault schedule: 1–3 transient budget
// excursions (including total brownouts, which force the ladder to its
// deepest rung), plus — with independent probabilities — sensor noise,
// counter noise, sample dropout and a stuck power sensor. All transient
// windows clear by ~0.55·horizon so the recovery monitor has room to fire.
// It returns the schedule, the simulated time by which every transient
// window has cleared, and whether the schedule contains permanent faults
// (run-wide noise, stuck sensors) that make full recovery to rung 0
// unenforceable.
func chaosScenario(rng *rand.Rand, seed int64, n int, horizon time.Duration, stalls bool, hang time.Duration) (sc fault.Scenario, clear time.Duration, permanent bool) {
	sc.Seed = seed
	h := horizon.Seconds()
	window := func(minOn, maxOn, minDur, maxDur float64) (at, dur time.Duration) {
		on := minOn + rng.Float64()*(maxOn-minOn)
		d := minDur + rng.Float64()*(maxDur-minDur)
		if on+d > 0.55 {
			d = 0.55 - on
		}
		return time.Duration(on * h * float64(time.Second)), time.Duration(d * h * float64(time.Second))
	}
	scales := []float64{0, 0.05, 0.3, 0.7, 1.5}
	for i, k := 0, 1+rng.Intn(3); i < k; i++ {
		at, dur := window(0.10, 0.35, 0.05, 0.20)
		sp := fault.BudgetSpike{At: at, Duration: dur, Scale: scales[rng.Intn(len(scales))]}
		sc.Spikes = append(sc.Spikes, sp)
		if end := sp.At + sp.Duration; end > clear {
			clear = end
		}
	}
	if stalls {
		at, dur := window(0.15, 0.40, 0.05, 0.15)
		sc.Stalls = append(sc.Stalls, fault.SolverStall{At: at, Duration: dur, Hang: hang})
		if end := at + dur; end > clear {
			clear = end
		}
	}
	if rng.Float64() < 0.5 {
		sc.PowerNoiseSigma = 0.02 + rng.Float64()*0.06
		permanent = true
	}
	if rng.Float64() < 0.3 {
		sc.InstrNoiseSigma = 0.01 + rng.Float64()*0.04
		permanent = true
	}
	if rng.Float64() < 0.3 {
		sc.DropProb = 0.01 + rng.Float64()*0.04
		sc.DropAsNaN = rng.Float64() < 0.5
		permanent = true
	}
	if rng.Float64() < 0.3 {
		stuck := math.NaN()
		if rng.Float64() < 0.5 {
			stuck = rng.Float64() * 5 // plausible-but-wrong low reading
		}
		at, _ := window(0.10, 0.40, 0, 0)
		sc.Stuck = append(sc.Stuck, fault.StuckFault{Core: rng.Intn(n), At: at, PowerW: stuck})
		permanent = true
	}
	return sc, clear, permanent
}

// scanNonFinite checks every reported metric of a Result for NaN/Inf.
func scanNonFinite(res *engine.Result) []string {
	var v []string
	bad := func(name string, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v = append(v, fmt.Sprintf("non-finite %s = %v", name, x))
		}
	}
	for i := range res.ChipPowerW {
		bad(fmt.Sprintf("ChipPowerW[%d]", i), res.ChipPowerW[i])
		bad(fmt.Sprintf("BudgetW[%d]", i), res.BudgetW[i])
		for c := 0; c < res.CorePowerW.Width(); c++ {
			bad(fmt.Sprintf("CorePowerW[%d][%d]", i, c), res.CorePowerW.At(i, c))
			bad(fmt.Sprintf("CoreInstr[%d][%d]", i, c), res.CoreInstr.At(i, c))
		}
	}
	for c := range res.PerCoreInstr {
		bad(fmt.Sprintf("PerCoreInstr[%d]", c), res.PerCoreInstr[c])
	}
	for i := range res.MaxTempC {
		bad(fmt.Sprintf("MaxTempC[%d]", i), res.MaxTempC[i])
	}
	bad("TotalInstr", res.TotalInstr)
	bad("EnergyJ", res.EnergyJ)
	bad("OvershootEnergyWs", res.OvershootEnergyWs)
	bad("WorstOvershootWs", res.WorstOvershootWs)
	return v
}

// chaosCheck runs the invariant monitors over one soaked run and folds the
// outcome into rep:
//
//   - conformance: no supervised decision's predicted power exceeds
//     budget × (1+tol) unless the vector is the uniform-deepest emergency
//     floor (the one rung with nothing left to demote);
//   - finiteness: no NaN/Inf anywhere in the reported Result;
//   - recovery: within recoverK explore intervals of the last transient
//     fault window clearing, the ladder is back on rung 0 (enforced only
//     for schedules without permanent faults).
//
// It also accumulates the MTTR and physical-overshoot histograms.
func chaosCheck(label string, deepest int, tol float64, exploreNs, clearNs int64, recoverK int, permanent bool, tr *obs.Trace, res *engine.Result, rep *ChaosReport) {
	for _, s := range scanNonFinite(res) {
		rep.Violations = append(rep.Violations, label+": "+s)
	}
	isDeepest := func(v []int) bool {
		for _, m := range v {
			if m != deepest {
				return false
			}
		}
		return true
	}
	degraded := 0
	for i := range tr.Records {
		rec := &tr.Records[i]
		if !rec.Sup {
			continue
		}
		eps := 1e-9 * (1 + math.Abs(rec.BudgetW))
		if rec.SupPredPowerW > rec.BudgetW*(1+tol)+eps && !isDeepest(rec.Vector) {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"%s: interval %d: actuated predicted power %.3f W exceeds budget %.3f W × (1+%.3g) on rung %d",
				label, rec.Interval, rec.SupPredPowerW, rec.BudgetW, tol, rec.SupRung))
		}
		if rec.SupRung > 0 {
			degraded++
		} else if degraded > 0 {
			rep.MTTR.Add(float64(degraded))
			degraded = 0
		}
		if !permanent && clearNs > 0 && rec.NowNs >= clearNs+int64(recoverK)*exploreNs && rec.SupRung != 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"%s: interval %d: still on rung %d, %d intervals past fault clear (bound %d)",
				label, rec.Interval, rec.SupRung, (rec.NowNs-clearNs)/exploreNs, recoverK))
		}
	}
	if degraded > 0 {
		rep.MTTR.Add(float64(degraded))
	}
	overW, overLen := 0.0, 0
	for i := range res.ChipPowerW {
		if over := res.ChipPowerW[i] - res.BudgetW[i]; over > 0 {
			overLen++
			if over > overW {
				overW = over
			}
		} else if overLen > 0 {
			rep.OvershootW.Add(overW)
			rep.OvershootLen.Add(float64(overLen))
			overW, overLen = 0, 0
		}
	}
	if overLen > 0 {
		rep.OvershootW.Add(overW)
		rep.OvershootLen.Add(float64(overLen))
	}
	rep.Runs++
	rep.Decisions += res.Obs.Decisions
	for r := range res.Obs.SupervisorRungs {
		rep.RungHits[r] += res.Obs.SupervisorRungs[r]
	}
	rep.Rejects += res.Obs.ConformanceRejects
	rep.Repairs += res.Obs.ConformanceRepairs
	rep.Timeouts += res.Obs.DeadlineTimeouts
	rep.Wedged += res.Obs.WedgedDecisions
}

// ChaosSoak runs the randomized fault soak for a combo and returns the
// aggregated report. Cells fan out on the env's bounded pool; every fault
// schedule derives deterministically from opts.Seed and the cell identity,
// so the soak is bit-identically reproducible for any Parallel value
// (and asserts exactly that, per cell, unless SkipDeterminism or a
// wall-clock Deadline makes reruns nondeterministic by construction).
func (e *Env) ChaosSoak(combo workload.Combo, opts ChaosOptions) (*ChaosReport, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Runs <= 0 {
		opts.Runs = 2
	}
	if opts.Intervals <= 0 {
		opts.Intervals = 25
	}
	if opts.Policies == nil {
		opts.Policies = []core.Policy{core.MaxBIPS{}, core.GreedyMaxBIPS{}, core.StableMaxBIPS{}}
	}
	if opts.Budgets == nil {
		opts.Budgets = []float64{0.60, 0.80}
	}
	if opts.RecoverK <= 0 {
		opts.RecoverK = 8
	}
	if opts.FullsimIntervals <= 0 {
		opts.FullsimIntervals = 6
	}
	if opts.Parallel <= 0 {
		opts.Parallel = pool.Workers(e.Workers)
	}
	base, err := e.Baseline(combo)
	if err != nil {
		return nil, err
	}
	envelope := base.EnvelopePowerW()
	n := combo.Cores()
	deepest := e.Plan.NumModes() - 1
	explore := e.Cfg.Sim.Explore

	type job struct {
		substrate string
		pol       core.Policy
		frac      float64
		run       int
		intervals int
		seed      int64
	}
	var jobs []job
	for pi, pol := range opts.Policies {
		for bi, frac := range opts.Budgets {
			for k := 0; k < opts.Runs; k++ {
				seed := opts.Seed*1_000_003 + int64(pi)*104_729 + int64(bi)*7919 + int64(k)*613
				jobs = append(jobs, job{"cmpsim", pol, frac, k, opts.Intervals, seed})
			}
			if opts.Fullsim {
				seed := opts.Seed*1_000_003 + int64(pi)*104_729 + int64(bi)*7919 + 499_979
				jobs = append(jobs, job{"fullsim", pol, frac, 0, opts.FullsimIntervals, seed})
			}
		}
	}

	supCfg := func() *engine.SupervisorConfig {
		return &engine.SupervisorConfig{Deadline: opts.Deadline}
	}
	frags := make([]*ChaosReport, len(jobs))
	err = pool.ForEach(opts.Parallel, len(jobs), func(i int) error {
		j := jobs[i]
		label := fmt.Sprintf("%s/%s/budget=%.2f/seed=%d", j.substrate, j.pol.Name(), j.frac, j.seed)
		rng := rand.New(rand.NewSource(j.seed))
		hor := explore * time.Duration(j.intervals)
		sc, clear, permanent := chaosScenario(rng, j.seed, n, hor, opts.Deadline > 0, 4*opts.Deadline)
		budgetW := j.frac * envelope
		guarded := j.run%2 == 0

		runOnce := func() (*engine.Result, *obs.Trace, error) {
			col := obs.NewCollector(nil)
			var guard *core.GuardConfig
			if guarded {
				guard = &core.GuardConfig{}
			}
			var res *engine.Result
			var err error
			if j.substrate == "fullsim" {
				chip, cerr := fullsim.NewWithOptions(e.Cfg, e.Model, e.Plan, combo.Benchmarks, 0, nil,
					fullsim.Options{Workers: e.chipWorkers(len(jobs))})
				if cerr != nil {
					return nil, nil, cerr
				}
				chip.Warm(20_000)
				res, err = chip.Managed(fullsim.ManagedOptions{
					Policy:     j.pol,
					BudgetW:    budgetW,
					Intervals:  j.intervals,
					Fault:      &sc,
					Guard:      guard,
					Supervisor: supCfg(),
					Observer:   col,
				})
			} else {
				res, err = cmpsim.Run(e.Lib, combo, cmpsim.Options{
					Budget:     cmpsim.FixedBudget(budgetW),
					Policy:     j.pol,
					Predictor:  e.Predictor(),
					Horizon:    hor,
					Fault:      &sc,
					Guard:      guard,
					Supervisor: supCfg(),
					Observer:   col,
				})
			}
			if err != nil {
				return nil, nil, err
			}
			return res, col.Trace(), nil
		}

		res, tr, err := runOnce()
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		rep := newChaosReport()
		chaosCheck(label, deepest, engine.GuardTolerance, explore.Nanoseconds(), clear.Nanoseconds(),
			opts.RecoverK, permanent, tr, res, rep)
		if !opts.SkipDeterminism && opts.Deadline == 0 {
			res2, tr2, err := runOnce()
			if err != nil {
				return fmt.Errorf("%s: rerun: %w", label, err)
			}
			if obs.ResultFingerprint(res) != obs.ResultFingerprint(res2) ||
				obs.TraceFingerprint(tr) != obs.TraceFingerprint(tr2) {
				rep.Violations = append(rep.Violations, label+": rerun with identical seed diverged (determinism break)")
			}
		}
		rep.Rows = []ChaosRow{{
			Substrate:  j.substrate,
			Policy:     j.pol.Name(),
			BudgetFrac: j.frac,
			Decisions:  res.Obs.Decisions,
			RungHits:   res.Obs.SupervisorRungs,
			Rejects:    res.Obs.ConformanceRejects,
			Repairs:    res.Obs.ConformanceRepairs,
			Timeouts:   res.Obs.DeadlineTimeouts,
			Wedged:     res.Obs.WedgedDecisions,
			Violations: len(rep.Violations),
		}}
		frags[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := newChaosReport()
	rowIdx := map[string]int{}
	for _, f := range frags {
		rows := f.Rows
		f.Rows = nil
		out.merge(f)
		for _, row := range rows {
			key := fmt.Sprintf("%s|%s|%.2f", row.Substrate, row.Policy, row.BudgetFrac)
			if k, ok := rowIdx[key]; ok {
				r := &out.Rows[k]
				r.Decisions += row.Decisions
				for i := range row.RungHits {
					r.RungHits[i] += row.RungHits[i]
				}
				r.Rejects += row.Rejects
				r.Repairs += row.Repairs
				r.Timeouts += row.Timeouts
				r.Wedged += row.Wedged
				r.Violations += row.Violations
			} else {
				rowIdx[key] = len(out.Rows)
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}
