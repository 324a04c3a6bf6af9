package fullsim

import (
	"errors"
	"testing"

	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/modes"
	"gpm/internal/obs"
	"gpm/internal/power"
)

// TestManagedOptionsValidation is the table-driven typed-error check for the
// fullsim front end, mirroring cmpsim's.
func TestManagedOptionsValidation(t *testing.T) {
	cfg := config.Default(2)
	plan := modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
	if _, err := NewWithOptions(cfg, power.Default(), plan, []string{"mcf", "crafty"}, 0, nil, Options{Workers: -1}); err == nil {
		t.Error("negative Workers accepted")
	} else {
		var oe *engine.OptionError
		if !errors.As(err, &oe) || oe.Field != "Workers" {
			t.Errorf("negative Workers: error %v not an OptionError on Workers", err)
		}
	}

	good := func() ManagedOptions {
		return ManagedOptions{Policy: core.MaxBIPS{}, BudgetW: 40, Intervals: 2}
	}
	cases := []struct {
		name  string
		mut   func(*ManagedOptions)
		field string
	}{
		{"nil policy", func(o *ManagedOptions) { o.Policy = nil }, "Policy"},
		{"zero intervals", func(o *ManagedOptions) { o.Intervals = 0 }, "Intervals"},
		{"negative intervals", func(o *ManagedOptions) { o.Intervals = -3 }, "Intervals"},
		{"supervisor with replay", func(o *ManagedOptions) {
			o.Supervisor = &engine.SupervisorConfig{}
			o.Replay = &obs.Trace{Records: []obs.Record{{Vector: []int{0, 0}, BudgetW: 40}}}
		}, "Supervisor"},
		{"negative supervisor node budget", func(o *ManagedOptions) {
			o.Supervisor = &engine.SupervisorConfig{NodeBudget: -1}
		}, "Supervisor.NodeBudget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := setup(t, []string{"mcf", "crafty"}, nil)
			opt := good()
			tc.mut(&opt)
			_, err := ch.Managed(opt)
			if err == nil {
				t.Fatal("accepted")
			}
			var oe *engine.OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %T (%v) is not *engine.OptionError", err, err)
			}
			if oe.Field != tc.field {
				t.Fatalf("rejected field %q, want %q", oe.Field, tc.field)
			}
		})
	}
}

// TestManagedSupervisedCleanPathIdentical pins supervisor transparency on the
// cycle-level substrate: a clean supervised run matches the unsupervised
// Result fingerprint exactly.
func TestManagedSupervisedCleanPathIdentical(t *testing.T) {
	run := func(sup bool) *engine.Result {
		ch := setup(t, []string{"mcf", "crafty"}, nil)
		ch.Warm(5000)
		opt := ManagedOptions{Policy: core.MaxBIPS{}, BudgetW: 40, Intervals: 4}
		if sup {
			opt.Supervisor = &engine.SupervisorConfig{}
		}
		res, err := ch.Managed(opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, supd := run(false), run(true)
	if a, b := obs.ResultFingerprint(plain), obs.ResultFingerprint(supd); a != b {
		t.Fatalf("supervised clean run diverged: %#x vs %#x", b, a)
	}
	if supd.Obs.SupervisorRungs[0] != supd.Obs.Decisions {
		t.Fatalf("clean run left rung 0: %+v", supd.Obs)
	}
}
