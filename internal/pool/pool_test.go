package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 37
		counts := make([]atomic.Int32, n)
		if err := ForEach(Workers(workers), n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachJoinsErrorsInIndexOrder(t *testing.T) {
	want := errors.Join(
		fmt.Errorf("job 1 failed"), fmt.Errorf("job 3 failed"), fmt.Errorf("job 5 failed"))
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 6, func(i int) error {
			if i%2 == 1 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error returned", workers)
		}
		if err.Error() != want.Error() {
			t.Errorf("workers=%d: error = %q, want %q", workers, err, want)
		}
	}
}

// TestForEachSerialAllocatesNothing pins the serial path, which the fleet
// takes every window at Workers 1, at zero allocations when every job
// succeeds. The job func is built once, as a hot-path caller builds it.
func TestForEachSerialAllocatesNothing(t *testing.T) {
	var sum int
	fn := func(i int) error {
		sum += i
		return nil
	}
	for _, n := range []int{0, 1, 8} {
		if a := testing.AllocsPerRun(100, func() {
			if err := ForEach(1, n, fn); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("n=%d: %v allocations per serial ForEach, want 0", n, a)
		}
	}
}
