package engine

import (
	"testing"
	"time"

	"gpm/internal/core"
	"gpm/internal/modes"
)

// TestGuardOnePrediction pins one set of §5.5 matrices per decision. The
// predictor's PowerScale counts its calls, which MatricesInto makes once
// per mode and prediction, for the manager and the guard alike. A plain,
// guarded, supervised, guarded and supervised, hard-cap-under-supervisor
// and watchdog decision answered in time each predict exactly once. A
// hard-cap decision without a supervisor predicts nothing: the policy does
// not run and nothing gates the floor.
func TestGuardOnePrediction(t *testing.T) {
	const n = 4
	plan := testPlan(t)
	nm := plan.NumModes()
	samples := []core.Sample{{PowerW: 20, Instr: 2e6}, {PowerW: 18, Instr: 1.5e6}, {PowerW: 16, Instr: 1e6}, {PowerW: 14, Instr: 5e5}}
	guard := &core.GuardConfig{}
	cases := []struct {
		name  string
		guard *core.GuardConfig
		sup   *SupervisorConfig
		// chipW is the chip-level reading every decision sees: 68 W sits
		// under the 100 W budget, 1 kW trips the hard cap on the last of
		// overshootK decisions.
		chipW float64
		// lastPreds is the predictions the last decision makes; every
		// earlier one makes exactly one.
		lastPreds int
		emergency bool
	}{
		{"plain", nil, nil, 68, 1, false},
		{"guarded", guard, nil, 68, 1, false},
		{"supervised", nil, &SupervisorConfig{}, 68, 1, false},
		{"guarded-supervised", guard, &SupervisorConfig{}, 68, 1, false},
		{"hard-cap-supervised", guard, &SupervisorConfig{}, 1e3, 1, true},
		{"watchdog-in-time", guard, &SupervisorConfig{Deadline: time.Minute}, 68, 1, false},
		{"hard-cap-unsupervised", guard, nil, 1e3, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scaled := 0
			pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6, PowerScale: func(m modes.Mode) float64 {
				scaled++
				return plan.PowerScale(m)
			}}
			d := NewDecider(plan, core.MaxBIPS{}, pred, n, tc.guard, tc.sup, nil)
			defer d.Close()
			cur := modes.Uniform(n, modes.Turbo)
			for i := 0; i < overshootK; i++ {
				before := scaled
				v, rep := d.Decide(core.Decision{BudgetW: 100, ChipPowerW: tc.chipW, Current: cur, Samples: samples})
				last := i == overshootK-1
				want := 1
				if last {
					want = tc.lastPreds
				}
				if got := scaled - before; got != want*nm {
					t.Fatalf("decision %d made %d/%d predictions, want %d", i, got, nm, want)
				}
				if rep.Emergency != (last && tc.emergency) {
					t.Fatalf("decision %d: Emergency = %v, want %v", i, rep.Emergency, last && tc.emergency)
				}
				if rep.Supervised != (tc.sup != nil) || rep.TimedOut || rep.Wedged {
					t.Fatalf("decision %d reported %+v", i, rep)
				}
				copy(cur, v)
			}
		})
	}
}

// matrixRecorder decides like MaxBIPS and keeps a copy of the power matrix
// each of its decisions saw.
type matrixRecorder struct{ power [][][]float64 }

func (r *matrixRecorder) Name() string { return "matrix-recorder" }

func (r *matrixRecorder) Decide(ctx core.Context) modes.Vector {
	rows := make([][]float64, len(ctx.Matrices.Power))
	for c, row := range ctx.Matrices.Power {
		rows[c] = append([]float64(nil), row...)
	}
	r.power = append(r.power, rows)
	return core.MaxBIPS{}.Decide(ctx)
}

// dropStage drops one core's observed sample (all zero) at one decision.
type dropStage struct {
	at   time.Duration
	core int
	buf  []core.Sample
}

func (s *dropStage) Name() string { return "dropout" }

func (s *dropStage) Apply(st *Step) error {
	if st.Now == s.at {
		s.buf = append(s.buf[:0], st.Samples...)
		s.buf[s.core] = core.Sample{}
		st.Samples = s.buf
	}
	return nil
}

// TestSupervisorGatesOnPolicyMatrices pins what the conformance gate reads.
// Core 1's sample drops out at one decision, and the guard repairs it with
// the core's last good value whether the guard or only the supervisor is
// armed: the policy decides on the repaired sample, and every decision's
// SupPredPowerW is the actuated vector's power summed, core by core, over
// the matrices the policy decided on.
func TestSupervisorGatesOnPolicyMatrices(t *testing.T) {
	const (
		n      = 4
		dropIv = 2 // the decision at 1 ms
	)
	plan := testPlan(t)
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	for _, guarded := range []bool{false, true} {
		var guardCfg *core.GuardConfig
		if guarded {
			guardCfg = &core.GuardConfig{}
		}
		rec := &matrixRecorder{}
		obs := &supObserver{}
		budget := func(time.Duration) float64 { return 0.75 * 68 }
		res := runFake(t, newFakeSub(plan, []float64{20, 18, 16, 14}, []float64{4e9, 3e9, 2e9, 1e9}, 500e-6), Options{
			Plan:             plan,
			Budget:           budget,
			Decider:          NewDecider(plan, rec, pred, n, guardCfg, &SupervisorConfig{}, nil),
			DeltaSim:         50 * time.Microsecond,
			DeltasPerExplore: 10,
			Horizon:          3 * time.Millisecond,
			Observer:         obs,
			Stages:           []Stage{BudgetSource{Fn: budget}, &dropStage{at: dropIv * 500 * time.Microsecond, core: 1}},
		})
		if res.SanitizedSamples != 1 {
			t.Fatalf("guarded=%v: SanitizedSamples = %d, want the one dropout", guarded, res.SanitizedSamples)
		}
		if len(rec.power) != len(obs.recs) || len(obs.recs) == 0 {
			t.Fatalf("guarded=%v: the policy decided %d of %d intervals", guarded, len(rec.power), len(obs.recs))
		}
		for i, r := range obs.recs {
			var want float64
			for c, m := range r.Final {
				want += rec.power[i][c][m]
			}
			if r.PredPowerW != want {
				t.Fatalf("guarded=%v interval %d: SupPredPowerW = %v, the policy's matrices give %v", guarded, i, r.PredPowerW, want)
			}
		}
		if row := rec.power[dropIv][1]; row[modes.Turbo] <= 0 {
			t.Fatalf("guarded=%v: the policy saw core 1's dropout (%v), not its last good sample", guarded, row)
		}
	}
}
