package experiment

import (
	"reflect"
	"testing"
	"time"

	"gpm/internal/workload"
)

// TestSweepDeterministicAcrossWorkers pins the parallel sweep runner's
// contract: a Figure-4-style (policy × budget) sweep and a resilience sweep
// must produce results bit-identical to the serial runner for any worker
// count, in the same order.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	mkEnv := func(workers int) *Env {
		e := env(t).ShortHorizon(10 * time.Millisecond)
		e.Budgets = []float64{0.70, 0.90}
		e.Workers = workers
		return e
	}

	serial, err := mkEnv(1).Figure4()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := mkEnv(workers).Figure4()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("Figure4 with Workers=%d differs from serial sweep", workers)
		}
	}

	combo := workload.FourWay[0]
	rates := []float64{0, 0.2}
	serialPts, err := mkEnv(1).ResilienceSweep(combo, ResiliencePolicies(), rates, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallelPts, err := mkEnv(6).ResilienceSweep(combo, ResiliencePolicies(), rates, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallelPts, serialPts) {
		t.Error("ResilienceSweep with Workers=6 differs from serial sweep")
	}
}
