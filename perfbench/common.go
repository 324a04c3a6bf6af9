package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"gpm/internal/engine"
)

// bench is one workload: one benchmark input set. A workload is built cold by setup and
// then run in identical passes; every pass does the same fixed work.
type bench interface {
	// passes sizes the timed section: the number of passes that take about
	// `seconds` on the reference host. The same seconds always gives the
	// same count, so the work is fixed on every host.
	passes(seconds int) int
	// setup builds the workload from nothing: a fresh Env and trace.Library,
	// characterization, baselines, and whatever the first pass needs built
	// ahead (the fleet scenarios).
	setup(seed int64, sp *setupSplit) error
	// pass runs one pass. tr is nil on the untraced path.
	pass(rec *passRec, tr *tracer) error
	// check runs untimed cross-checks after the passes: results through
	// the one-call public entry points must equal the stepped passes.
	check(chk *checker)
}

func workloadNames() []string {
	return []string{"paper-sweep", "manycore-1024", "fleet-brownout", "fullsim-xcheck"}
}

func newWorkload(name string) (bench, error) {
	switch name {
	case "paper-sweep":
		return &paperSweep{}, nil
	case "manycore-1024":
		return &manycore{}, nil
	case "fleet-brownout":
		return &fleetBrownout{}, nil
	case "fullsim-xcheck":
		return &fullsimXcheck{}, nil
	}
	return nil, fmt.Errorf("unknown --workload %q (want one of %v)", name, workloadNames())
}

// setupSplit is one cold build's time per layer, in seconds.
type setupSplit struct{ characterize, baseline, build float64 }

// setupSplits collects the splits of every cold build of a run.
type setupSplits struct{ characterize, baseline, build []float64 }

func (s *setupSplits) add(x setupSplit) {
	s.characterize = append(s.characterize, x.characterize)
	s.baseline = append(s.baseline, x.baseline)
	s.build = append(s.build, x.build)
}

// timed runs fn and adds its wall time in seconds to *acc.
func timed(acc *float64, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*acc += time.Since(t0).Seconds()
	return err
}

// outcome is the simulated result of one pass. Every field is a pure
// function of the seed and the pass's fixed work.
type outcome struct {
	lossSum float64 // Σ throughput loss vs the all-Turbo baseline (fraction)
	lossN   int
	// overDeltas of deltas delta intervals ran above the budget in force.
	overDeltas, deltas int
	// attained of arrived fleet requests completed within their SLO.
	attained, arrived int
	gapSum            float64 // Σ |trace − detailed| degradation gap (fraction)
	gapN              int
}

// addRun folds one managed engine run into the outcome.
func (o *outcome) addRun(res, base *engine.Result) {
	if base != nil {
		o.lossSum += 1 - res.TotalInstr/base.TotalInstr
		o.lossN++
	}
	o.overDeltas += res.OvershootIntervals
	o.deltas += len(res.ChipPowerW)
}

// passRec is what one pass reports back to the run.
type passRec struct {
	chk       *checker
	intervals int
	// decisionUs are host times of the StepDelta calls that ran an
	// explore-boundary decision, on loops the benchmark steps itself.
	decisionUs []float64
	outcome    outcome
	// opNs are the host times of the pass's operations, in pass order.
	// intervals_per_s is taken from them alone.
	opNs []int64
	// untimed* are the allocations of work inside the pass that is not
	// part of the workload (building the next pass's fleets).
	untimedMallocs, untimedBytes uint64
}

// untimed runs work that is not part of the workload between operations:
// its allocations are subtracted from the pass's.
func (r *passRec) untimed(fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	r.untimedMallocs += m1.Mallocs - m0.Mallocs
	r.untimedBytes += m1.TotalAlloc - m0.TotalAlloc
	return err
}

// checker counts operations (one simulated run, one fleet scenario or one
// cross-substrate comparison) and their failures. An operation fails when it
// returns an error, yields a non-finite outcome, or its fingerprint differs
// from the same configuration's fingerprint earlier in the run.
type checker struct {
	attempted, failed int
	seen              map[string]uint64
	problems          []string
}

// op records one operation. key names the configuration; fp is its
// fingerprint; ok is false when its outcome was not finite.
func (c *checker) op(key string, fp uint64, ok bool) {
	c.attempted++
	if c.seen == nil {
		c.seen = make(map[string]uint64)
	}
	prev, again := c.seen[key]
	switch {
	case !ok:
		c.fail("%s: non-finite outcome", key)
	case again && prev != fp:
		c.fail("%s: fingerprint %016x differs from the earlier pass's %016x", key, fp, prev)
	default:
		c.seen[key] = fp
	}
}

// opErr records an operation that returned an error.
func (c *checker) opErr(key string, err error) {
	c.attempted++
	c.fail("%s: %v", key, err)
}

// fail records a failed operation or a broken integrity check.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// result seals the run: correct only when no operation failed and every
// metric is finite.
func (c *checker) result(m map[string]metric) *result {
	correct := c.failed == 0 && c.attempted > 0
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			correct = false
			c.problems = append(c.problems, name+" is not finite")
			m[name] = metric{-1, v.Unit}
		}
	}
	for _, p := range c.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	return &result{Correct: correct, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// finiteResult reports whether every accounted quantity of a run is finite.
func finiteResult(r *engine.Result) bool {
	ok := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	if !ok(r.TotalInstr) || !ok(r.EnergyJ) || !ok(r.OvershootEnergyWs) {
		return false
	}
	for _, p := range r.ChipPowerW {
		if !ok(p) {
			return false
		}
	}
	return true
}

// The benchmark keeps its own statistics rather than internal/metrics, so a
// change to the program cannot change how the program is measured.

// median returns the median of xs (NaN when empty), without mutating xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN when empty), without mutating xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := q * float64(len(s)-1)
	lo := int(r)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
