package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares: %v, want 1", got)
	}
	// One cohort takes everything: index collapses to 1/n.
	if got := JainFairness([]float64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single-winner shares: %v, want 0.25", got)
	}
	// Textbook intermediate case.
	xs := []float64{1, 2, 3}
	want := 36.0 / (3 * 14.0)
	if got := JainFairness(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("JainFairness(%v) = %v, want %v", xs, got, want)
	}
	// Scale invariance: Jain's index ignores units.
	if a, b := JainFairness([]float64{1, 2, 3}), JainFairness([]float64{100, 200, 300}); math.Abs(a-b) > 1e-12 {
		t.Errorf("not scale invariant: %v vs %v", a, b)
	}
	if got := JainFairness(nil); got != 0 {
		t.Errorf("empty input: %v, want 0", got)
	}
	if got := JainFairness([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero input: %v, want 0", got)
	}
	for _, bad := range [][]float64{
		{1, math.NaN(), 1},
		{1, math.Inf(1), 1},
		{1, math.Inf(-1), 1},
		{1, -2, 1},
	} {
		if got := JainFairness(bad); got != 0 {
			t.Errorf("JainFairness(%v) = %v, want 0", bad, got)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose; Percentile must sort a copy
	if got := Percentile(xs, 50); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	// Linear interpolation between closest ranks: p25 of {1,2,3,4} sits
	// 0.75 of the way from 1 to 2.
	if got := Percentile(xs, 25); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("p25 = %v, want 1.75", got)
	}
	if xs[0] != 4 || xs[1] != 1 || xs[2] != 3 || xs[3] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("singleton p99 = %v, want 7", got)
	}
	// Non-finite samples are dropped, not propagated.
	if got := Percentile([]float64{math.NaN(), 5, math.Inf(1)}, 50); got != 5 {
		t.Errorf("polluted p50 = %v, want 5", got)
	}
	for _, bad := range []struct {
		xs []float64
		p  float64
	}{
		{nil, 50},
		{[]float64{math.NaN()}, 50},
		{[]float64{1, 2}, -1},
		{[]float64{1, 2}, 101},
		{[]float64{1, 2}, math.NaN()},
	} {
		if got := Percentile(bad.xs, bad.p); !math.IsNaN(got) {
			t.Errorf("Percentile(%v, %v) = %v, want NaN", bad.xs, bad.p, got)
		}
	}
}

func TestSummarizeLatency(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	lp := SummarizeLatency(xs)
	if math.Abs(lp.P50-50.5) > 1e-9 {
		t.Errorf("p50 = %v, want 50.5", lp.P50)
	}
	if math.Abs(lp.P95-95.05) > 1e-9 {
		t.Errorf("p95 = %v, want 95.05", lp.P95)
	}
	if math.Abs(lp.P99-99.01) > 1e-9 {
		t.Errorf("p99 = %v, want 99.01", lp.P99)
	}
	empty := SummarizeLatency(nil)
	if !math.IsNaN(empty.P50) || !math.IsNaN(empty.P95) || !math.IsNaN(empty.P99) {
		t.Errorf("empty latency summary %+v, want NaNs", empty)
	}
}

// TestSummarizeLatencyMatchesPercentile pins the one-sort summary to three
// Percentile calls, bit for bit, on random slices polluted with NaN and ±Inf.
func TestSummarizeLatencyMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, rng.Intn(40))
		for i := range xs {
			if rng.Intn(5) == 0 {
				xs[i] = bad[rng.Intn(len(bad))]
			} else {
				xs[i] = rng.NormFloat64() * 100
			}
		}
		got := SummarizeLatency(xs)
		want := LatencyPercentiles{Percentile(xs, 50), Percentile(xs, 95), Percentile(xs, 99)}
		same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
		if !same(got.P50, want.P50) || !same(got.P95, want.P95) || !same(got.P99, want.P99) {
			t.Fatalf("trial %d (%v): SummarizeLatency %+v, Percentile %+v", trial, xs, got, want)
		}
	}
}
