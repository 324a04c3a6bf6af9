package cmpsim

import (
	"fmt"
	"os"
	"testing"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/obs"
	"gpm/internal/thermal"
)

// goldenFingerprint hashes every numeric series and counter of a Result
// bit-exactly, including the robustness accounting and the final samples, so
// any drift in the simulation loop — decision order, stall accounting,
// truncation handling, guard state machine — changes the hash. The hash now
// lives in internal/obs (trace footers stamp the same value); the pinned
// values below predate the move and pin it unchanged.
func goldenFingerprint(r *Result) uint64 {
	return obs.ResultFingerprint(r)
}

// goldenCase is one pinned (policy, budget, fault, guard, thermal) run.
type goldenCase struct {
	name string
	opt  func() Options
	want uint64
}

// goldenThermal builds a fresh governor per run (the state mutates).
func goldenThermal() *thermal.Governor {
	st, err := thermal.NewState(thermal.Params{RthCPerW: 2.5, CthJPerC: 8e-4, AmbientC: 45, LimitC: 85}, 4)
	if err != nil {
		panic(err)
	}
	return thermal.NewGovernor(st, 500*time.Microsecond)
}

// goldenCases pins the trace-based control loop across every feature axis the
// engine refactor touches: plain policies, fault injection, the guarded
// manager, budget spikes, thermal governing and thermal-sensor death. The
// fingerprints were captured on the pre-engine monolithic cmpsim.Run; the
// engine-backed loop must reproduce them bit for bit.
var goldenCases = []goldenCase{
	{
		name: "maxbips-70W",
		opt: func() Options {
			return Options{Budget: FixedBudget(70), Policy: core.MaxBIPS{}, Horizon: 8 * time.Millisecond}
		},
	},
	{
		name: "priority-55W",
		opt: func() Options {
			return Options{Budget: FixedBudget(55), Policy: core.Priority{}, Horizon: 8 * time.Millisecond}
		},
	},
	{
		name: "greedy-step-budget",
		opt: func() Options {
			return Options{Budget: StepBudget(75, 50, 4*time.Millisecond), Policy: core.GreedyMaxBIPS{}, Horizon: 8 * time.Millisecond}
		},
	},
	{
		name: "maxbips-noise-unguarded",
		opt: func() Options {
			return Options{
				Budget:  FixedBudget(60),
				Policy:  core.MaxBIPS{},
				Fault:   &fault.Scenario{Seed: 7, PowerNoiseSigma: 0.08, InstrNoiseSigma: 0.03, DropProb: 0.05},
				Horizon: 8 * time.Millisecond,
			}
		},
	},
	{
		name: "maxbips-noise-guarded",
		opt: func() Options {
			return Options{
				Budget:  FixedBudget(60),
				Policy:  core.MaxBIPS{},
				Fault:   &fault.Scenario{Seed: 7, PowerNoiseSigma: 0.08, InstrNoiseSigma: 0.03, DropProb: 0.05},
				Guard:   &core.GuardConfig{},
				Horizon: 8 * time.Millisecond,
			}
		},
	},
	{
		name: "greedy-stuck-death-guarded",
		opt: func() Options {
			return Options{
				Budget: FixedBudget(65),
				Policy: core.GreedyMaxBIPS{},
				Fault: &fault.Scenario{
					Seed:   3,
					Stuck:  []fault.StuckFault{{Core: 0, PowerW: 0.5, At: 2 * time.Millisecond}},
					Deaths: []fault.CoreDeath{{Core: 2, At: 4 * time.Millisecond}},
				},
				Guard:   &core.GuardConfig{},
				Horizon: 9 * time.Millisecond,
			}
		},
	},
	{
		name: "maxbips-spike-thermalfail",
		opt: func() Options {
			return Options{
				Budget: FixedBudget(60),
				Policy: core.MaxBIPS{},
				Fault: &fault.Scenario{
					Spikes:        []fault.BudgetSpike{{At: 2 * time.Millisecond, Duration: time.Millisecond, Scale: 0.5}},
					ThermalFailAt: 3 * time.Millisecond,
				},
				Thermal: goldenThermal(),
				Horizon: 7 * time.Millisecond,
			}
		},
	},
	{
		name: "maxbips-truncated-interval",
		opt: func() Options {
			// Horizon cuts the second explore interval at 40%: pins the
			// truncated-interval sample averaging through the loop.
			return Options{Budget: FixedBudget(70), Policy: core.MaxBIPS{}, Horizon: 500*time.Microsecond + 4*50*time.Microsecond}
		},
	},
}

var goldenWant = map[string]uint64{
	"maxbips-70W":                0xe81d07ca3d25fbbd,
	"priority-55W":               0xaf0b859fd616bc98,
	"greedy-step-budget":         0x611485a2a450ea9e,
	"maxbips-noise-unguarded":    0xda0906193b70c44e,
	"maxbips-noise-guarded":      0xfe96178277767972,
	"greedy-stuck-death-guarded": 0x46908fad24ae6e4b,
	"maxbips-spike-thermalfail":  0xa8b4f58c394a9fde,
	"maxbips-truncated-interval": 0xcd4efa29b57668a3,
}

// TestGoldenControlLoop pins cmpsim.Run bit-identical across policies,
// budgets, fault scenarios, the guard and the thermal loop. Captured on the
// pre-engine tree; the engine-backed Run must not move a single bit. To
// re-capture after an intentional numerics change:
//
//	GOLDEN_CAPTURE=1 go test ./internal/cmpsim -run TestGoldenControlLoop -v
func TestGoldenControlLoop(t *testing.T) {
	lib := testLib(t, 4)
	capture := os.Getenv("GOLDEN_CAPTURE") != ""
	for _, gc := range goldenCases {
		res, err := Run(lib, fourWay(), gc.opt())
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		got := goldenFingerprint(res)
		if capture {
			fmt.Printf("\t%q: %#x,\n", gc.name, got)
			continue
		}
		if want := goldenWant[gc.name]; got != want {
			t.Errorf("%s: fingerprint %#x, want %#x — trace-based control loop drifted", gc.name, got, want)
		}
	}
}

// goldenTraceWant pins the decision-trace fingerprints of the golden cases:
// the deterministic fields of every per-interval record (observed samples,
// stage budgets and overrides, candidate and final vectors, guard state,
// stalls). The Result fingerprints above pin the simulated physics; these pin
// the *decision pipeline's* observable behavior. Re-capture with
// GOLDEN_CAPTURE=1 after an intentional change.
var goldenTraceWant = map[string]uint64{
	"maxbips-70W":                0xabfe811275b37713,
	"priority-55W":               0x79f12b05c9aa9bb3,
	"greedy-step-budget":         0x12aceaa5b75bf3fb,
	"maxbips-noise-unguarded":    0x06e15a683eded04d,
	"maxbips-noise-guarded":      0x4af8d8da059790d9,
	"greedy-stuck-death-guarded": 0xcdf4e25bd4ad44e2,
	"maxbips-spike-thermalfail":  0x8da50c666c0c00a9,
	"maxbips-truncated-interval": 0x22bb7e11aa030976,
}

// TestGoldenDecisionTraces runs the golden cases with tracing attached and
// pins (a) that observing does not move the Result a single bit and (b) the
// trace fingerprint of each case.
func TestGoldenDecisionTraces(t *testing.T) {
	lib := testLib(t, 4)
	capture := os.Getenv("GOLDEN_CAPTURE") != ""
	for _, gc := range goldenCases {
		opt := gc.opt()
		col := obs.NewCollector(nil)
		opt.Observer = col
		res, err := Run(lib, fourWay(), opt)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if got, want := goldenFingerprint(res), goldenWant[gc.name]; !capture && got != want {
			t.Errorf("%s: observed run fingerprint %#x, want %#x — tracing changed the simulation", gc.name, got, want)
		}
		if res.Obs.TraceRecords != len(col.Trace().Records) || res.Obs.TraceRecords == 0 {
			t.Errorf("%s: %d trace records collected, counters say %d", gc.name, len(col.Trace().Records), res.Obs.TraceRecords)
		}
		got := obs.TraceFingerprint(col.Trace())
		if capture {
			fmt.Printf("\t%q: %#x,\n", gc.name, got)
			continue
		}
		if want := goldenTraceWant[gc.name]; got != want {
			t.Errorf("%s: trace fingerprint %#x, want %#x — decision pipeline drifted", gc.name, got, want)
		}
	}
}

// TestGoldenReplayBitIdentical records each golden case and replays the trace
// through the replay Decider on a fresh substrate: the replayed Result must
// reproduce the original bit for bit — recorded vectors and budgets are the
// only decision inputs the physics ever consumed.
func TestGoldenReplayBitIdentical(t *testing.T) {
	lib := testLib(t, 4)
	for _, gc := range goldenCases {
		col := obs.NewCollector(nil)
		opt := gc.opt()
		opt.Observer = col
		orig, err := Run(lib, fourWay(), opt)
		if err != nil {
			t.Fatalf("%s: record: %v", gc.name, err)
		}
		// Fresh per-case options: the recording run consumed the thermal
		// governor's state, and replay needs the same fault scenario for the
		// core-death physics (observation noise is irrelevant — decisions
		// are replayed verbatim).
		ropt := gc.opt()
		replayed, err := Run(lib, fourWay(), Options{
			Replay:  col.Trace(),
			Fault:   ropt.Fault,
			Thermal: ropt.Thermal,
			Horizon: ropt.Horizon,
		})
		if err != nil {
			t.Fatalf("%s: replay: %v", gc.name, err)
		}
		if a, b := goldenFingerprint(orig), goldenFingerprint(replayed); a != b {
			t.Errorf("%s: replay diverged: original %#x, replayed %#x", gc.name, a, b)
		}
	}
}

// completionWant pins runs that end at a program completion (§5.1): the
// four profiles are cut to 1.5–2.25 M instructions, and crafty (core 2)
// completes at 1.3 ms, in the middle of the third explore interval, ahead
// of the others; in the guarded case core 3 has died at 600 µs. The values
// were captured on the loop that polled every core's completion at every
// delta.
var completionWant = map[string]uint64{
	"maxbips-60W":          0x2736abc391350c7,
	"oracle-60W":           0xdf48d05286deb459,
	"greedy-death-guarded": 0x913f51245d90a18e,
}

// TestGoldenCompletion pins a run through the trace substrate that stops at
// a core's completion mid-interval: the truncated interval's samples, the
// completed core's Done flag and FirstCompleted all enter the fingerprint.
// Each case builds a fresh library, so the cut profiles reach no other
// test. Re-capture as for TestGoldenControlLoop.
func TestGoldenCompletion(t *testing.T) {
	cases := []goldenCase{
		{name: "maxbips-60W", opt: func() Options {
			return Options{Budget: FixedBudget(60), Policy: core.MaxBIPS{}, Horizon: 8 * time.Millisecond}
		}},
		{name: "oracle-60W", opt: func() Options {
			return Options{Budget: FixedBudget(60), Policy: core.Oracle{}, Horizon: 8 * time.Millisecond}
		}},
		{name: "greedy-death-guarded", opt: func() Options {
			return Options{
				Budget:  FixedBudget(55),
				Policy:  core.GreedyMaxBIPS{},
				Fault:   &fault.Scenario{Deaths: []fault.CoreDeath{{Core: 3, At: 600 * time.Microsecond}}},
				Guard:   &core.GuardConfig{},
				Horizon: 8 * time.Millisecond,
			}
		}},
	}
	capture := os.Getenv("GOLDEN_CAPTURE") != ""
	for _, gc := range cases {
		lib := testLib(t, 4)
		for i, name := range fourWay().Benchmarks {
			pr, err := lib.Profile(name)
			if err != nil {
				t.Fatal(err)
			}
			pr.Spec.TotalInstructions = uint64(1_500_000 + 250_000*i)
		}
		res, err := Run(lib, fourWay(), gc.opt())
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if res.FirstCompleted < 0 || res.Elapsed >= 8*time.Millisecond || res.Elapsed%(500*time.Microsecond) == 0 {
			t.Fatalf("%s: first completion %d at %v, want one mid-interval", gc.name, res.FirstCompleted, res.Elapsed)
		}
		got := goldenFingerprint(res)
		if capture {
			fmt.Printf("\t%q: %#x,\n", gc.name, got)
			continue
		}
		if want := completionWant[gc.name]; got != want {
			t.Errorf("%s: fingerprint %#x, want %#x — completion handling drifted", gc.name, got, want)
		}
	}
}
