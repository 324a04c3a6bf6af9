package cmpsim_test

import (
	"fmt"
	"testing"
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/experiment"
	"gpm/internal/solver"
	"gpm/internal/workload"
)

// allocNodeBudget is the paper sweep's node budget for supervised BB.
const allocNodeBudget = 10_000

// TestExploreIntervalZeroAllocs pins the zero-allocation explore interval on
// every configuration the paper sweep runs, on real trace players: MaxBIPS
// enumerating (4 cores, 81 vectors) and by branch-and-bound (8 cores), the
// other paper policies, the guarded, fault-injected, supervised session BB
// run, plus a 64-core hierarchical session. A run at 10 ms (20 decisions)
// must allocate exactly what the same run allocates at 5 ms (10 decisions):
// whatever a run allocates, it allocates once, not per interval.
//
// The guarded case's fault seed makes the sanitizer repair a dropout while
// every decision stays at supervisor rung 0 with no emergency, the paper
// sweep's steady state. The overload case cuts the same run's budget to 5%
// of its envelope at 2 ms, below what the deepest modes draw: from there the
// guard's emergency throttle engages and the supervisor tries rungs 1 and 2
// and actuates rung 3. Those paths build their vectors in reused buffers
// too.
func TestExploreIntervalZeroAllocs(t *testing.T) {
	env := experiment.NewEnv(4)
	guard := core.DefaultGuard()
	type allocCase struct {
		name  string
		combo workload.Combo
		frac  float64
		cut   bool // the budget falls to 5% of the envelope at 2 ms
		opt   func() cmpsim.Options
	}
	// Solver policies get a label: an unlabelled name is formatted by fmt,
	// whose pooled printers the race detector drops at random, so the
	// per-run count would wobble under -race.
	session := func(s solver.Solver) *core.SolverPolicy {
		p := core.NewSolverPolicy(s)
		p.Label = s.Name()
		return p
	}
	plain := func(p core.Policy) func() cmpsim.Options {
		return func() cmpsim.Options { return cmpsim.Options{Policy: p} }
	}
	var cases []allocCase
	for _, pc := range []struct {
		name  string
		combo workload.Combo
		pol   core.Policy
	}{
		{"maxbips-enumerate/cores=4", workload.FourWay[0], core.MaxBIPS{}},
		{"maxbips-bb/cores=8", workload.EightWay[0], core.MaxBIPS{}},
		{"priority/cores=4", workload.FourWay[0], core.Priority{}},
		{"pullhipushlo/cores=4", workload.FourWay[0], core.PullHiPushLo{}},
		{"chipwide/cores=4", workload.FourWay[0], core.ChipWideDVFS{}},
		{"oracle/cores=4", workload.FourWay[0], core.Oracle{}},
		{"oracle/cores=8", workload.EightWay[0], core.Oracle{}},
	} {
		cases = append(cases, allocCase{pc.name, pc.combo, 0.7, false, plain(pc.pol)})
	}
	guarded := func() cmpsim.Options {
		sc := experiment.DefaultFaultProfile(0.05, 7_001)
		pol := session(solver.WithDeadline(&solver.BB{}, 0, allocNodeBudget))
		pol.NodeCount = new(int64)
		return cmpsim.Options{Policy: pol, Guard: &guard, Fault: &sc,
			Supervisor: &engine.SupervisorConfig{NodeBudget: allocNodeBudget}}
	}
	cases = append(cases,
		allocCase{"guarded-supervised-bb/cores=4", workload.FourWay[1], 0.6, false, guarded},
		allocCase{"guarded-supervised-bb-overload/cores=4", workload.FourWay[1], 0.6, true, guarded},
		allocCase{"hier-session/cores=64", experiment.ReplicatedCombo(64), 0.7, false, func() cmpsim.Options {
			return cmpsim.Options{Policy: session(&solver.Hier{})}
		}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, err := env.Baseline(c.combo)
			if err != nil {
				t.Fatal(err)
			}
			budget := cmpsim.FixedBudget(c.frac * base.EnvelopePowerW())
			if c.cut {
				budget = cmpsim.StepBudget(c.frac*base.EnvelopePowerW(), 0.05*base.EnvelopePowerW(), 2*time.Millisecond)
			}
			run := func(horizon time.Duration) (allocs float64, res *engine.Result) {
				allocs = testing.AllocsPerRun(3, func() {
					opt := c.opt()
					opt.Budget = budget
					opt.Predictor = env.Predictor()
					opt.Horizon = horizon
					var err error
					if res, err = cmpsim.Run(env.Lib, c.combo, opt); err != nil {
						t.Fatal(err)
					}
				})
				return allocs, res
			}
			short, _ := run(5 * time.Millisecond)
			long, res := run(10 * time.Millisecond)
			if len(res.Modes) != 20 {
				t.Fatalf("the 10 ms run made %d decisions, want 20: a run that stops early shows nothing", len(res.Modes))
			}
			if long != short {
				t.Errorf("%v allocations at 10 ms, %v at 5 ms: %s per extra decision", long, short,
					fmt.Sprintf("%.2f", (long-short)/10))
			}
			if opt := c.opt(); opt.Guard != nil {
				rungs, emergencies := res.Obs.SupervisorRungs, res.EmergencyEntries
				switch {
				case res.SanitizedSamples == 0:
					t.Errorf("the guarded run sanitized no sample: the fault seed does not exercise the guard")
				case !c.cut && (rungs[0] != 20 || emergencies != 0):
					t.Errorf("rungs %v, %d emergencies: want every decision at rung 0 and no emergency", rungs, emergencies)
				case c.cut && (rungs[1]+rungs[2]+rungs[3] == 0 || emergencies == 0):
					t.Errorf("rungs %v, %d emergencies: the budget cut does not reach the degraded paths", rungs, emergencies)
				}
			}
		})
	}
}
