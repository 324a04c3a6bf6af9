// Command benchjson converts `go test -bench` text output (read from stdin)
// into a JSON array, one object per benchmark result line:
//
//	go test -run '^$' -bench BenchmarkSolver -benchmem ./internal/solver | benchjson
//
// Each object carries the benchmark name, GOMAXPROCS suffix, iteration count,
// and every reported metric keyed by its unit (ns/op, B/op, allocs/op, and
// any b.ReportMetric custom units such as nodes/op), and the host it was
// measured on: the `cpu:` line go test prints before a package's rows and
// the Go version benchjson runs under (the toolchain `go run` and `go test`
// share). Other non-benchmark lines are ignored, so the full `go test`
// output can be piped through unfiltered.
//
// With -check baseline.json, benchjson instead compares the fresh results
// against a committed baseline and exits non-zero on allocation regressions:
// every row present in both whose name matches -match (default: the warm /
// steady-state session rows) must not report more allocs/op than the
// baseline row times the -slack factor. A 0-alloc baseline therefore admits
// zero fresh allocations — the steady-state contract `make bench-check`
// enforces in CI. It prints the baseline rows' host beside the current one
// ("unrecorded" for rows stamped before hosts were), so a latency gate read
// across two machines says so.
//
// Three further gates ride along with -check, all off by default:
//
//   - -ns-match selects rows whose ns/op must stay within -ns-slack × the
//     baseline row (latency regression tolerance for the memo-hit and
//     delta-solve fast paths);
//   - -ns-cap "regex=ns[,regex=ns...]" pins absolute ns/op ceilings on fresh
//     rows (the issue's hard numbers, independent of any baseline);
//   - -ratio "A<=F*B" relates two fresh rows: the row matching regex A must
//     run in at most F times the ns/op of the row matching regex B (the
//     ≥10×-faster-than-full-solve contract, machine-relative by design).
//
// The -ns-match and -ratio gates read a row's median ns/op over its repeats,
// so a leg run with `go test -count N` is judged on the median of N samples
// rather than on one that met a burst of host noise. -repeats N makes every
// row those gates read carry at least N samples, so a leg whose later
// repeats died is not judged on the samples that came before.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// CPU and Go name the host the row was measured on: go test's `cpu:`
	// line and the Go version. Rows recorded before hosts were stamped
	// have neither.
	CPU string `json:"cpu,omitempty"`
	Go  string `json:"go,omitempty"`
}

func main() {
	check := flag.String("check", "", "baseline JSON to compare fresh results against (allocs/op gate)")
	match := flag.String("match", "SolverWarm|steady|drift|warm-", "regexp selecting rows the -check gate applies to")
	slack := flag.Float64("slack", 1.05, "multiplicative headroom over the baseline allocs/op (0-alloc baselines admit none)")
	nsMatch := flag.String("ns-match", "", "regexp selecting rows whose ns/op is gated against the baseline (empty: off)")
	nsSlack := flag.Float64("ns-slack", 1.5, "multiplicative headroom over the baseline ns/op for -ns-match rows")
	nsCap := flag.String("ns-cap", "", "comma-separated regex=ns pairs pinning absolute ns/op ceilings on fresh rows")
	ratio := flag.String("ratio", "", `"A<=F*B" gate: fresh row A's ns/op must be at most F times fresh row B's`)
	repeats := flag.Int("repeats", 0, "minimum samples of every row the -ns-match and -ratio gates read (0: any)")
	flag.Parse()

	results, err := parse(os.Stdin, runtime.Version())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *check != "" {
		if err := checkBaseline(results, *check, *match, *slack, *nsMatch, *nsSlack); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := checkRepeats(results, *repeats, *nsMatch, *ratio); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := checkCaps(results, *nsCap); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := checkRatio(results, *ratio); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parse reads go test output and returns its benchmark rows, each stamped
// with the most recent `cpu:` line and the Go version goVersion.
func parse(in io.Reader, goVersion string) ([]Result, error) {
	results := []Result{}
	var cpu string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if c, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		if r, ok := parseLine(line); ok {
			r.CPU, r.Go = cpu, goVersion
			results = append(results, r)
		}
	}
	return results, sc.Err()
}

// host names the machine a row was measured on, or "unrecorded". go test
// leaves the -N suffix off rows run at GOMAXPROCS 1, so Procs 0 reads as 1.
func host(r Result) string {
	if r.CPU == "" && r.Go == "" {
		return "unrecorded"
	}
	return fmt.Sprintf("%s, %s, GOMAXPROCS %d", r.CPU, r.Go, max(r.Procs, 1))
}

// hostLines describes, once per distinct pair, the baseline host beside the
// current host of compared rows (each pair is {fresh, baseline}).
func hostLines(pairs [][2]Result) []string {
	var lines []string
	seen := map[string]bool{}
	for _, p := range pairs {
		l := fmt.Sprintf("host: baseline %s; now %s", host(p[1]), host(p[0]))
		if !seen[l] {
			seen[l] = true
			lines = append(lines, l)
		}
	}
	return lines
}

// checkBaseline fails when a fresh row matching the selector reports more
// allocs/op than its baseline counterpart allows. Rows missing from either
// side are skipped (new benchmarks land before their baseline is committed;
// retired ones linger in old baselines), but a run in which the selector
// matches nothing at all is an error — a renamed benchmark must not silently
// disarm the gate.
func checkBaseline(fresh []Result, path, match string, slack float64, nsMatch string, nsSlack float64) error {
	sel, err := regexp.Compile(match)
	if err != nil {
		return fmt.Errorf("bad -match regexp: %v", err)
	}
	var nsSel *regexp.Regexp
	if nsMatch != "" {
		if nsSel, err = regexp.Compile(nsMatch); err != nil {
			return fmt.Errorf("bad -ns-match regexp: %v", err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base []Result
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	baseline := make(map[string]Result, len(base))
	for _, r := range base {
		baseline[r.Name] = r
	}
	compared, nsCompared, failed := 0, 0, 0
	nsDone := map[string]bool{}
	var pairs [][2]Result
	defer func() {
		for _, l := range hostLines(pairs) {
			fmt.Fprintf(os.Stderr, "benchjson: %s\n", l)
		}
	}()
	for _, r := range fresh {
		allocRow := sel.MatchString(r.Name)
		nsRow := nsSel != nil && nsSel.MatchString(r.Name)
		if !allocRow && !nsRow {
			continue
		}
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %s: no baseline row, skipping\n", r.Name)
			continue
		}
		pairs = append(pairs, [2]Result{r, b})
		if allocRow {
			got, gok := r.Metrics["allocs/op"]
			want, wok := b.Metrics["allocs/op"]
			if gok && wok {
				compared++
				if got > want*slack {
					failed++
					fmt.Fprintf(os.Stderr, "benchjson: ALLOC REGRESSION %s: %g allocs/op, baseline %g (slack %.2f)\n",
						r.Name, got, want, slack)
				} else {
					fmt.Fprintf(os.Stderr, "benchjson: ok %s: %g allocs/op (baseline %g)\n", r.Name, got, want)
				}
			}
		}
		if nsRow && !nsDone[r.Name] {
			nsDone[r.Name] = true
			got, k := medianNS(fresh, r.Name)
			want, wok := b.Metrics["ns/op"]
			if k > 0 && wok {
				nsCompared++
				if got > want*nsSlack {
					failed++
					fmt.Fprintf(os.Stderr, "benchjson: LATENCY REGRESSION %s: median %g ns/op of %d, baseline %g (slack %.2f)\n",
						r.Name, got, k, want, nsSlack)
				} else {
					fmt.Fprintf(os.Stderr, "benchjson: ok %s: median %g ns/op of %d (baseline %g, slack %.2f)\n",
						r.Name, got, k, want, nsSlack)
				}
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("no rows matched %q against %s — gate disarmed?", match, path)
	}
	if nsSel != nil && nsCompared == 0 {
		return fmt.Errorf("no rows matched -ns-match %q against %s — gate disarmed?", nsMatch, path)
	}
	if failed > 0 {
		return fmt.Errorf("%d regression(s) vs %s", failed, path)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d alloc row(s), %d latency row(s) within baseline %s\n", compared, nsCompared, path)
	return nil
}

// checkCaps enforces absolute ns/op ceilings: spec is a comma-separated list
// of regex=ns pairs; every pair must match at least one fresh row, and every
// matched row must run under its ceiling.
func checkCaps(fresh []Result, spec string) error {
	if spec == "" {
		return nil
	}
	for _, pair := range strings.Split(spec, ",") {
		i := strings.LastIndex(pair, "=")
		if i < 0 {
			return fmt.Errorf("bad -ns-cap pair %q (want regex=ns)", pair)
		}
		sel, err := regexp.Compile(pair[:i])
		if err != nil {
			return fmt.Errorf("bad -ns-cap regexp %q: %v", pair[:i], err)
		}
		cap, err := strconv.ParseFloat(pair[i+1:], 64)
		if err != nil {
			return fmt.Errorf("bad -ns-cap ceiling %q: %v", pair[i+1:], err)
		}
		matched := 0
		for _, r := range fresh {
			got, ok := r.Metrics["ns/op"]
			if !sel.MatchString(r.Name) || !ok {
				continue
			}
			matched++
			if got > cap {
				return fmt.Errorf("CEILING %s: %g ns/op exceeds the %g ns cap", r.Name, got, cap)
			}
			fmt.Fprintf(os.Stderr, "benchjson: ok %s: %g ns/op under the %g ns cap\n", r.Name, got, cap)
		}
		if matched == 0 {
			return fmt.Errorf("no rows matched -ns-cap %q — gate disarmed?", pair[:i])
		}
	}
	return nil
}

// medianNS returns the median ns/op over the fresh rows named name and how
// many there were (go test -count N repeats each row N times).
func medianNS(fresh []Result, name string) (float64, int) {
	var xs []float64
	for _, r := range fresh {
		if v, ok := r.Metrics["ns/op"]; ok && r.Name == name {
			xs = append(xs, v)
		}
	}
	k := len(xs)
	if k == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	if k%2 == 1 {
		return xs[k/2], k
	}
	return (xs[k/2-1] + xs[k/2]) / 2, k
}

// checkRepeats requires every fresh row that the -ns-match regexp or either
// side of the -ratio spec selects to carry at least n ns/op samples.
func checkRepeats(fresh []Result, n int, nsMatch, ratioSpec string) error {
	if n <= 0 {
		return nil
	}
	var exprs []string
	if nsMatch != "" {
		exprs = append(exprs, nsMatch)
	}
	if le, star := strings.Index(ratioSpec, "<="), strings.Index(ratioSpec, "*"); le >= 0 && star > le {
		exprs = append(exprs, ratioSpec[:le], ratioSpec[star+1:])
	}
	counts := map[string]int{}
	var names []string
	for _, r := range fresh {
		if _, ok := r.Metrics["ns/op"]; ok {
			if counts[r.Name] == 0 {
				names = append(names, r.Name)
			}
			counts[r.Name]++
		}
	}
	for _, expr := range exprs {
		sel, err := regexp.Compile(expr)
		if err != nil {
			return fmt.Errorf("bad gate regexp %q: %v", expr, err)
		}
		for _, name := range names {
			if sel.MatchString(name) && counts[name] < n {
				return fmt.Errorf("%s: %d sample(s), -repeats wants at least %d", name, counts[name], n)
			}
		}
	}
	return nil
}

// checkRatio enforces a cross-row speedup: spec "A<=F*B" requires the unique
// fresh row name matching regex A to report at most F times the ns/op of the
// unique fresh row name matching regex B, each read as the median over the
// row's repeats.
func checkRatio(fresh []Result, spec string) error {
	if spec == "" {
		return nil
	}
	le := strings.Index(spec, "<=")
	star := strings.Index(spec, "*")
	if le < 0 || star < le {
		return fmt.Errorf("bad -ratio %q (want A<=F*B)", spec)
	}
	f, err := strconv.ParseFloat(spec[le+2:star], 64)
	if err != nil {
		return fmt.Errorf("bad -ratio factor in %q: %v", spec, err)
	}
	find := func(expr string) (string, float64, int, error) {
		sel, err := regexp.Compile(expr)
		if err != nil {
			return "", 0, 0, fmt.Errorf("bad -ratio regexp %q: %v", expr, err)
		}
		var hit string
		for _, r := range fresh {
			if _, ok := r.Metrics["ns/op"]; ok && sel.MatchString(r.Name) {
				if hit != "" && hit != r.Name {
					return "", 0, 0, fmt.Errorf("-ratio regexp %q matches both %s and %s", expr, hit, r.Name)
				}
				hit = r.Name
			}
		}
		if hit == "" {
			return "", 0, 0, fmt.Errorf("-ratio regexp %q matched no fresh row", expr)
		}
		ns, k := medianNS(fresh, hit)
		return hit, ns, k, nil
	}
	a, aNS, aK, err := find(spec[:le])
	if err != nil {
		return err
	}
	b, bNS, bK, err := find(spec[star+1:])
	if err != nil {
		return err
	}
	if aNS > f*bNS {
		return fmt.Errorf("RATIO %s: median %g ns/op of %d exceeds %g × %s (median %g ns/op of %d)",
			a, aNS, aK, f, b, bNS, bK)
	}
	fmt.Fprintf(os.Stderr, "benchjson: ok %s: median %g ns/op of %d ≤ %g × %s (median %g ns/op of %d; ratio %.2f)\n",
		a, aNS, aK, f, b, bNS, bK, aNS/bNS)
	return nil
}

// parseLine decodes the standard benchmark format:
//
//	BenchmarkName-8   124   9_471 ns/op   512 B/op   7 allocs/op
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	r := Result{Name: f[0], Metrics: map[string]float64{}}
	if i := strings.LastIndex(f[0], "-"); i >= 0 {
		if procs, err := strconv.Atoi(f[0][i+1:]); err == nil {
			r.Name, r.Procs = f[0][:i], procs
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return Result{}, false
	}
	return r, true
}
