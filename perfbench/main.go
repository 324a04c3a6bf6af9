// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload: it builds the workload cold several times (setup), then
// runs a fixed amount of simulation work in passes, checks every simulated
// outcome, and prints one JSON result line.
//
//	perfbench --workload paper-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same setup and the same passes run again with an engine.Observer,
// wrapped policies and replays attached, and the result carries the
// per-layer split instead; no end-to-end metric is taken from a traced run.
// Every number is taken from outside the program, by timing calls into the
// public functions of its packages. Everything runs on one goroutine.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run builds its workload cold; setup_s is
// the median.
const setupReps = 3

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: feeds the simulator's workload generator, the fault scenario and the fleet arrivals")
	seconds := flag.Int("seconds", 10, "sizes the fixed work of the timed section (about this many seconds on the reference host)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced int) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	passes := w.passes(seconds)
	info := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced, "passes": passes,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(),
	}
	var res *result
	if traced == 1 {
		res, err = runTraced(name, seed, passes, info)
	} else {
		res, err = runPlain(name, seed, passes, info)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"run": info})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runPlain is the untraced run: median setup, then the timed passes.
func runPlain(name string, seed int64, passes int, info map[string]any) (*result, error) {
	w, setupS, heapMB, err := setupMedian(name, seed, nil)
	if err != nil {
		return nil, err
	}
	var (
		mallocs, bytes      uint64
		intervals           int
		chk                 checker
		decisions           int
		passDecP50, passP99 []float64
		opNs                [][]int64
		o                   outcome // the first pass's; later passes match it
	)
	var decBuf []float64
	for p := 0; p < passes; p++ {
		// The buffers the pass appends to are sized by the first pass, so
		// later passes allocate only what the workload allocates.
		rec := &passRec{chk: &chk, decisionUs: decBuf[:0]}
		if p > 0 {
			rec.opNs = make([]int64, 0, len(opNs[0]))
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := w.pass(rec, nil); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs - rec.untimedMallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc - rec.untimedBytes
		intervals += rec.intervals
		opNs = append(opNs, rec.opNs)
		if len(rec.decisionUs) > 0 {
			passDecP50 = append(passDecP50, quantile(rec.decisionUs, 0.50))
			passP99 = append(passP99, quantile(rec.decisionUs, 0.99))
			decisions += len(rec.decisionUs)
		}
		decBuf = rec.decisionUs
		if p == 0 {
			o = rec.outcome
		}
	}
	w.check(&chk)
	if intervals == 0 {
		return nil, errors.New("no explore interval completed")
	}
	m := map[string]metric{
		"setup_s":               {setupS, "s"},
		"setup_heap_mb":         {heapMB, "MB"},
		"intervals_per_s":       {opRate(intervals/passes, opNs), "1/s"},
		"allocs_per_interval":   {float64(mallocs) / float64(intervals), "count"},
		"alloc_kb_per_interval": {float64(bytes) / 1024 / float64(intervals), "KB"},
	}
	// The simulated outcomes and the metrics that exist on some workloads
	// only travel on the run line: the result line carries the same metric
	// set on every workload, and a simulated outcome moves with the seed
	// (on fullsim-xcheck by more than any bound a gate could use).
	extra := map[string]metric{
		"throughput_loss_pct": {100 * o.lossSum / float64(o.lossN), "%"},
		"overshoot_pct":       {100 * float64(o.overDeltas) / float64(o.deltas), "%"},
		"failed_pct":          {100 * float64(chk.failed) / float64(chk.attempted), "%"},
	}
	// p99 is reported only with at least ten samples beyond it.
	if decisions >= 1000 {
		extra["decision_p50_us"] = metric{median(passDecP50), "us"}
		extra["decision_p99_us"] = metric{median(passP99), "us"}
		info["decision_samples"] = decisions
	}
	if o.arrived > 0 {
		extra["slo_attainment_pct"] = metric{100 * float64(o.attained) / float64(o.arrived), "%"}
	}
	if o.gapN > 0 {
		extra["model_error_pct"] = metric{100 * o.gapSum / float64(o.gapN), "%"}
	}
	info["metrics"] = extra
	return chk.result(m), nil
}

// opRate is a pass's intervals over the sum, across the pass's operations,
// of each operation's fastest host time over the passes. Host interference
// comes in bursts of a second or two that slow whole passes by up to 1.8×
// and only ever slows an operation down; the fastest of an operation's
// repetitions, spread across the run, is its least disturbed, and summing
// over the pass's operations averages out which ones got a quiet moment.
// On the reference host this halves the run-to-run spread of the median.
func opRate(intervalsPerPass int, opNs [][]int64) float64 {
	n := len(opNs[0])
	for _, ops := range opNs {
		n = min(n, len(ops))
	}
	var sum float64
	xs := make([]float64, len(opNs))
	for i := 0; i < n; i++ {
		for p, ops := range opNs {
			xs[p] = float64(ops[i])
		}
		sum += quantile(xs, 0)
	}
	return float64(intervalsPerPass) / (sum / 1e9)
}

// setupMedian builds the workload cold setupReps times and returns the last
// build, the median wall time and the live heap after the last build. sp,
// when non-nil, receives each build's per-layer split.
func setupMedian(name string, seed int64, sp *setupSplits) (bench, float64, float64, error) {
	var (
		w     bench
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		w = nil
		runtime.GC()
		var s setupSplit
		t0 := time.Now()
		var err error
		w, err = newWorkload(name)
		if err == nil {
			err = w.setup(seed, &s)
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if sp != nil {
			sp.add(s)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return w, median(times), float64(ms.HeapAlloc) / (1 << 20), nil
}

// cpuModel reads the host CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
