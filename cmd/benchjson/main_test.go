package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkSolver/bb/cores=64-8    424    2612470 ns/op    12345 nodes/op    2048 B/op    12 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if r.Name != "BenchmarkSolver/bb/cores=64" || r.Procs != 8 {
		t.Fatalf("name %q procs %d", r.Name, r.Procs)
	}
	if r.Iterations != 424 {
		t.Fatalf("iterations %d", r.Iterations)
	}
	want := map[string]float64{"ns/op": 2612470, "nodes/op": 12345, "B/op": 2048, "allocs/op": 12}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Fatalf("%s = %v, want %v", unit, r.Metrics[unit], v)
		}
	}

	for _, bad := range []string{
		"PASS",
		"ok  \tgpm/internal/solver\t2.1s",
		"goos: linux",
		"BenchmarkBroken notanumber ns/op",
		"--- BENCH: BenchmarkSolver",
	} {
		if _, ok := parseLine(bad); ok {
			t.Fatalf("line %q should not parse", bad)
		}
	}
}

// TestParseHost pins the host stamp: each row carries the cpu line printed
// before its package's rows and the given Go version, and -check describes
// the baseline's host beside the current one, "unrecorded" for rows stamped
// before hosts were.
func TestParseHost(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: gpm/internal/engine
cpu: Host A
BenchmarkEngine/warm-bb/cores=16-2   	      3	    956934 ns/op	     2585 allocs/op
PASS
pkg: gpm
cpu: Host B
BenchmarkDecisionMaxBIPS-2   	  20000	     18748 ns/op	        1 allocs/op
`
	rows, err := parse(strings.NewReader(out), "go1.24.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("parsed %d rows, want 2", len(rows))
	}
	for i, want := range []string{"Host A", "Host B"} {
		if rows[i].CPU != want || rows[i].Go != "go1.24.0" {
			t.Fatalf("row %d stamped %q %q, want %q go1.24.0", i, rows[i].CPU, rows[i].Go, want)
		}
	}
	old := Result{Name: rows[0].Name, Procs: 2, Metrics: rows[0].Metrics}
	single := rows[1]
	single.Procs = 0 // go test prints no -N suffix at GOMAXPROCS 1
	lines := hostLines([][2]Result{{rows[0], old}, {rows[0], old}, {rows[1], rows[1]}, {single, rows[1]}})
	want := []string{
		"host: baseline unrecorded; now Host A, go1.24.0, GOMAXPROCS 2",
		"host: baseline Host B, go1.24.0, GOMAXPROCS 2; now Host B, go1.24.0, GOMAXPROCS 2",
		"host: baseline Host B, go1.24.0, GOMAXPROCS 2; now Host B, go1.24.0, GOMAXPROCS 1",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("host lines:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

func TestCheckBaseline(t *testing.T) {
	base := `[
  {"name": "BenchmarkSolverWarm/bb-steady/cores=64", "iterations": 10, "metrics": {"allocs/op": 0}},
  {"name": "BenchmarkSolverWarm/hier-drift/cores=256", "iterations": 10, "metrics": {"allocs/op": 75}},
  {"name": "BenchmarkSolver/bb/cores=64", "iterations": 10, "metrics": {"allocs/op": 217}}
]`
	dir := t.TempDir()
	path := dir + "/base.json"
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	row := func(name string, allocs float64) Result {
		return Result{Name: name, Iterations: 10, Metrics: map[string]float64{"allocs/op": allocs}}
	}
	// Within baseline (exact match + inside slack) passes.
	ok := []Result{
		row("BenchmarkSolverWarm/bb-steady/cores=64", 0),
		row("BenchmarkSolverWarm/hier-drift/cores=256", 78), // 75*1.05 = 78.75
		row("BenchmarkSolver/bb/cores=64", 999),             // not matched by selector
	}
	if err := checkBaseline(ok, path, "SolverWarm", 1.05, "", 1.5); err != nil {
		t.Fatalf("within-baseline results rejected: %v", err)
	}
	// A 0-alloc baseline admits no fresh allocations at any slack.
	bad := []Result{row("BenchmarkSolverWarm/bb-steady/cores=64", 1)}
	if err := checkBaseline(bad, path, "SolverWarm", 1.05, "", 1.5); err == nil {
		t.Fatal("alloc regression on a 0-alloc baseline not caught")
	}
	// Exceeding slack on a non-zero baseline fails.
	bad2 := []Result{row("BenchmarkSolverWarm/hier-drift/cores=256", 80)}
	if err := checkBaseline(bad2, path, "SolverWarm", 1.05, "", 1.5); err == nil {
		t.Fatal("alloc regression past slack not caught")
	}
	// A selector that matches nothing must fail loudly, not silently pass.
	if err := checkBaseline(ok, path, "Renamed", 1.05, "", 1.5); err == nil {
		t.Fatal("disarmed gate (no matching rows) not reported")
	}
	// Rows with no baseline counterpart are skipped, but the run still
	// needs at least one comparison.
	novel := []Result{row("BenchmarkSolverWarm/new-row", 5)}
	if err := checkBaseline(novel, path, "SolverWarm", 1.05, "", 1.5); err == nil {
		t.Fatal("zero comparisons should be an error")
	}
}

func TestCheckBaselineLatency(t *testing.T) {
	base := `[
  {"name": "BenchmarkSolverDelta/bb-gen-steady/cores=1024", "iterations": 10, "metrics": {"ns/op": 70, "allocs/op": 0}},
  {"name": "BenchmarkSolverDelta/bb-delta/cores=1024", "iterations": 10, "metrics": {"ns/op": 5600, "allocs/op": 0}}
]`
	dir := t.TempDir()
	path := dir + "/base.json"
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	row := func(name string, ns float64) Result {
		return Result{Name: name, Iterations: 10, Metrics: map[string]float64{"ns/op": ns, "allocs/op": 0}}
	}
	ok := []Result{
		row("BenchmarkSolverDelta/bb-gen-steady/cores=1024", 100), // 70*1.5 = 105
		row("BenchmarkSolverDelta/bb-delta/cores=1024", 8000),     // 5600*1.5 = 8400
	}
	if err := checkBaseline(ok, path, "SolverDelta", 1.05, "gen-steady|bb-delta", 1.5); err != nil {
		t.Fatalf("within-slack latency rejected: %v", err)
	}
	// Past the slack fails.
	slow := []Result{row("BenchmarkSolverDelta/bb-gen-steady/cores=1024", 120)}
	if err := checkBaseline(slow, path, "SolverDelta", 1.05, "gen-steady", 1.5); err == nil {
		t.Fatal("latency regression past slack not caught")
	}
	// An ns selector matching nothing must fail loudly.
	if err := checkBaseline(ok, path, "SolverDelta", 1.05, "Renamed", 1.5); err == nil {
		t.Fatal("disarmed ns gate not reported")
	}
}

func TestCheckCaps(t *testing.T) {
	rows := []Result{
		{Name: "BenchmarkSolverDelta/bb-gen-steady/cores=1024", Metrics: map[string]float64{"ns/op": 66}},
		{Name: "BenchmarkFleetEpochSteady", Metrics: map[string]float64{"ns/op": 130}},
	}
	if err := checkCaps(rows, ""); err != nil {
		t.Fatalf("empty spec must be a no-op: %v", err)
	}
	if err := checkCaps(rows, "gen-steady=1000,FleetEpochSteady=6500"); err != nil {
		t.Fatalf("under-cap rows rejected: %v", err)
	}
	if err := checkCaps(rows, "gen-steady=50"); err == nil {
		t.Fatal("over-cap row not caught")
	}
	if err := checkCaps(rows, "NoSuchRow=1000"); err == nil {
		t.Fatal("cap matching no row must fail loudly")
	}
	if err := checkCaps(rows, "missing-equals"); err == nil {
		t.Fatal("malformed pair accepted")
	}
}

func TestCheckRatio(t *testing.T) {
	rows := []Result{
		{Name: "BenchmarkSolverDelta/bb-delta/cores=1024", Metrics: map[string]float64{"ns/op": 5600}},
		{Name: "BenchmarkSolverDelta/bb-warm-full/cores=1024", Metrics: map[string]float64{"ns/op": 1e7}},
	}
	if err := checkRatio(rows, ""); err != nil {
		t.Fatalf("empty spec must be a no-op: %v", err)
	}
	if err := checkRatio(rows, "bb-delta<=0.1*bb-warm-full"); err != nil {
		t.Fatalf("173× speedup rejected by the 10× gate: %v", err)
	}
	if err := checkRatio(rows, "bb-delta<=0.0001*bb-warm-full"); err == nil {
		t.Fatal("insufficient speedup not caught")
	}
	if err := checkRatio(rows, "NoSuchRow<=0.1*bb-warm-full"); err == nil {
		t.Fatal("ratio with no matching A row must fail")
	}
	if err := checkRatio(rows, "bb-<=0.1*bb-warm-full"); err == nil {
		t.Fatal("ambiguous A regexp must fail")
	}
	if err := checkRatio(rows, "garbage"); err == nil {
		t.Fatal("malformed spec accepted")
	}
}

// TestCheckMedianOfRepeats pins that the -ratio and -ns-match gates read the
// median of a row's repeats (go test -count N): one outlying sample neither
// fails nor passes a gate on its own.
func TestCheckMedianOfRepeats(t *testing.T) {
	row := func(name string, ns float64) Result {
		return Result{Name: name, Metrics: map[string]float64{"ns/op": ns, "allocs/op": 0}}
	}
	hier, greedy := "BenchmarkSolverWarm/hier-drift/cores=1024", "BenchmarkSolverWarm/greedy-drift/cores=1024"
	rows := []Result{
		row(hier, 1.2e6), row(greedy, 2.4e5),
		row(hier, 1.7e6), row(greedy, 2.3e5), // the outlier: 7.4× on its own
		row(hier, 1.25e6), row(greedy, 2.5e5),
	}
	if ns, k := medianNS(rows, hier); ns != 1.25e6 || k != 3 {
		t.Fatalf("medianNS = %g of %d, want 1.25e6 of 3", ns, k)
	}
	if ns, k := medianNS(rows[:4], hier); ns != 1.45e6 || k != 2 {
		t.Fatalf("even-count medianNS = %g of %d, want 1.45e6 of 2", ns, k)
	}
	if err := checkRatio(rows, "hier-drift<=7*greedy-drift"); err != nil {
		t.Fatalf("median ratio 5.2× rejected by a 7× gate: %v", err)
	}
	if err := checkRatio(rows, "hier-drift<=5*greedy-drift"); err == nil {
		t.Fatal("median ratio 5.2× passed a 5× gate")
	}
	if err := checkRatio(rows, "drift<=7*greedy-drift"); err == nil {
		t.Fatal("regexp matching two row names must still fail as ambiguous")
	}
	// A leg whose third repeat died leaves hier with three samples and
	// greedy with two: -repeats 3 must refuse to judge it.
	spec := "hier-drift<=7*greedy-drift"
	if err := checkRepeats(rows, 3, "hier-drift", spec); err != nil {
		t.Fatalf("three samples of each row rejected by -repeats 3: %v", err)
	}
	if err := checkRepeats(rows[:5], 3, "", spec); err == nil {
		t.Fatal("greedy row with two samples passed -repeats 3")
	}
	if err := checkRepeats(rows[:4], 3, "hier-drift", ""); err == nil {
		t.Fatal("-ns-match row with two samples passed -repeats 3")
	}
	if err := checkRepeats(rows[:1], 0, "hier-drift", spec); err != nil {
		t.Fatalf("-repeats 0 must not gate: %v", err)
	}

	base := `[
  {"name": "BenchmarkSolverWarm/hier-drift/cores=1024", "iterations": 40, "metrics": {"ns/op": 1000000, "allocs/op": 0}},
  {"name": "BenchmarkSolverWarm/greedy-drift/cores=1024", "iterations": 40, "metrics": {"ns/op": 240000, "allocs/op": 0}}
]`
	path := t.TempDir() + "/base.json"
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkBaseline(rows, path, "drift", 1.05, "hier-drift", 1.5); err != nil {
		t.Fatalf("median 1.25e6 against a 1.5×1e6 slack rejected: %v", err)
	}
	if err := checkBaseline(rows, path, "drift", 1.05, "hier-drift", 1.2); err == nil {
		t.Fatal("median 1.25e6 passed a 1.2×1e6 slack")
	}
}
