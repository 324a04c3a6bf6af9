package engine

import (
	"testing"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
)

// TestDeciderContract drives every engine-side Decider (plain, guarded,
// guarded under a synchronous supervisor and guarded under the watchdog)
// through the contract the loop relies on: a decision's vector is the
// decider's own and survives the caller rewriting its Current and Samples
// buffers; only the guard's throttle sets Report.Emergency, with no
// Candidate; a decision the watchdog abandons reports no candidate;
// InvalidateSession without a session is a no-op; Stats reports the guard
// only where there is one; and Close is safe twice.
func TestDeciderContract(t *testing.T) {
	const n = 4
	plan := testPlan(t)
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	guard := &core.GuardConfig{}
	newSamples := func() []core.Sample {
		return []core.Sample{{PowerW: 20, Instr: 2e6}, {PowerW: 18, Instr: 1.5e6}, {PowerW: 16, Instr: 1e6}, {PowerW: 14, Instr: 5e5}}
	}
	cases := []struct {
		name    string
		guarded bool
		build   func() Decider
	}{
		{"plain", false, func() Decider { return NewDecider(plan, core.MaxBIPS{}, pred, n, nil, nil, nil) }},
		{"guarded", true, func() Decider { return NewDecider(plan, core.MaxBIPS{}, pred, n, guard, nil, nil) }},
		{"supervised-sync", true, func() Decider {
			return NewDecider(plan, core.MaxBIPS{}, pred, n, guard, &SupervisorConfig{}, nil)
		}},
		{"supervised-watchdog", true, func() Decider {
			return NewDecider(plan, core.MaxBIPS{}, pred, n, guard, &SupervisorConfig{Deadline: time.Minute}, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.build()
			d.InvalidateSession() // no session: a no-op
			cur := modes.Uniform(n, modes.Turbo)
			samples := newSamples()

			// An ample budget: the policy decides, nothing throttles.
			v, rep := d.Decide(core.Decision{BudgetW: 100, ChipPowerW: 68, Current: cur, Samples: samples})
			if rep.Emergency || rep.Candidate == nil {
				t.Fatalf("policy decision reported %+v, want a candidate and no emergency", rep)
			}
			want := v.Clone()
			for c := range cur {
				cur[c] = modes.Mode(plan.NumModes() - 1)
				samples[c] = core.Sample{PowerW: 1e9, Instr: -1}
			}
			if !v.Equal(want) {
				t.Fatalf("returned vector changed to %v after the caller rewrote its buffers, want %v", v, want)
			}

			// A chip reading far over a tiny budget for a full overshoot
			// run trips the guard's throttle on the run's last decision;
			// an unguarded decider still decides.
			for i := 0; i < overshootK; i++ {
				copy(cur, want)
				copy(samples, newSamples())
				_, rep = d.Decide(core.Decision{BudgetW: 1, ChipPowerW: 1e3, Current: cur, Samples: samples})
				if last := i == overshootK-1; rep.Emergency != (tc.guarded && last) {
					t.Fatalf("decision %d: Emergency = %v, want %v", i, rep.Emergency, tc.guarded && last)
				}
			}
			if (rep.Candidate == nil) != tc.guarded {
				t.Fatalf("Candidate = %v with Emergency = %v: want nil exactly when the throttle decided", rep.Candidate, rep.Emergency)
			}

			st := d.Stats()
			if st.Guarded != tc.guarded || (tc.guarded && st.Guard.EmergencyEntries != 1) {
				t.Fatalf("Stats = %+v, want Guarded = %v with one emergency entry", st, tc.guarded)
			}
			if st.SessionOn || st.NodesCounted {
				t.Fatalf("MaxBIPS reports a session or a node count: %+v", st)
			}
			d.Close()
			d.Close()
		})
	}

	// The abandoned solve keeps running on the guard's copies of the
	// caller's buffers while the caller rewrites them, which the race
	// detector checks.
	t.Run("watchdog-timeout", func(t *testing.T) {
		inj, err := fault.NewInjector(fault.Scenario{
			Stalls: []fault.SolverStall{{At: 0, Duration: time.Millisecond, Hang: 200 * time.Millisecond}},
		}, n)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecider(plan, core.MaxBIPS{}, pred, n, nil, &SupervisorConfig{Deadline: 100 * time.Microsecond}, inj)
		cur := modes.Uniform(n, modes.Turbo)
		samples := newSamples()
		v, rep := d.Decide(core.Decision{BudgetW: 100, ChipPowerW: 68, Current: cur, Samples: samples})
		if !rep.TimedOut {
			t.Fatalf("decision inside a 200 ms hang was not abandoned at a 100 µs deadline: %+v", rep)
		}
		if rep.Candidate != nil || rep.Emergency {
			t.Fatalf("abandoned decision reported %+v, want no candidate and no emergency", rep)
		}
		if rep.Rung == 0 || len(v) != n {
			t.Fatalf("abandoned decision answered from rung %d with %v", rep.Rung, v)
		}
		for c := range cur {
			cur[c] = modes.Mode(plan.NumModes() - 1)
			samples[c] = core.Sample{}
		}
		d.Close() // drains the abandoned solve
		d.Close()
	})
}
