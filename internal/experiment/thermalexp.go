package experiment

import (
	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/metrics"
	"gpm/internal/thermal"
	"gpm/internal/workload"
)

// ---------------------------------------------------------------------------
// A7: thermally governed budgets. The paper manages a power budget directly;
// in deployment the budget often *derives from* a junction-temperature limit
// (§1 calls peak temperature a primary limiter; Fig 6's budget drop models a
// cooling failure). This experiment closes the loop: per-core RC thermal
// nodes integrate the simulated power, and the governor converts the
// temperature limit into the chip budget MaxBIPS enforces.
// ---------------------------------------------------------------------------

// ThermalRow summarizes one thermal-limit setting.
type ThermalRow struct {
	LimitC      float64
	MaxTempC    float64 // hottest observation across the run
	Degradation float64
	AvgPowerW   float64
}

// ThermalResult pairs the governed runs with the ungoverned reference.
type ThermalResult struct {
	ComboID string
	// UngovernedMaxTempC is the hottest temperature the same workload
	// reaches with no thermal control (unlimited budget).
	UngovernedMaxTempC float64
	Rows               []ThermalRow
}

// Thermal runs MaxBIPS under a set of junction-temperature limits on the
// baseline 4-way combo and reports achieved temperature, power and
// performance.
func (e *Env) Thermal(limits []float64) (*ThermalResult, error) {
	combo := workload.FourWay[0]
	base, err := e.Baseline(combo)
	if err != nil {
		return nil, err
	}

	// The hottest core's average power anchors the thermal geometry: its
	// Turbo steady state lands 10 °C above the default limit (so governance
	// is needed), and its all-Eff2 floor stays ≈10 °C below it (so the
	// limits are achievable by DVFS).
	hottest := 0.0
	for c := 0; c < combo.Cores(); c++ {
		var sum float64
		for i := 0; i < base.CorePowerW.Len(); i++ {
			sum += base.CorePowerW.At(i, c)
		}
		if avg := sum / float64(base.CorePowerW.Len()); avg > hottest {
			hottest = avg
		}
	}
	params := thermal.DefaultParams()
	// Scale the thermal resistance so the all-Turbo workload would exceed
	// the default limit without governance, and the capacitance so the
	// thermal time constant fits several times into the simulated horizon —
	// the interesting regime at millisecond simulation scales.
	params.RthCPerW = (params.LimitC - params.AmbientC + 10) / hottest
	params.CthJPerC = (e.Cfg.Sim.Horizon.Seconds() / 5) / params.RthCPerW

	run := func(limit float64, governed bool) (*cmpsim.Result, *thermal.Governor, error) {
		p := params
		p.LimitC = limit
		st, err := thermal.NewState(p, combo.Cores())
		if err != nil {
			return nil, nil, err
		}
		gov := thermal.NewGovernor(st, e.Cfg.Sim.Explore)
		opt := cmpsim.Options{
			Budget:    cmpsim.Unlimited(),
			Policy:    core.MaxBIPS{},
			Predictor: e.Predictor(),
			Horizon:   e.Cfg.Sim.Horizon,
		}
		if governed {
			opt.Thermal = gov
		} else {
			// Track temperatures without feeding them back.
			opt.Thermal = nil
		}
		res, err := cmpsim.Run(e.Lib, combo, opt)
		if err != nil {
			return nil, nil, err
		}
		if !governed {
			// Replay the power series through the thermal model offline.
			for i := 0; i < res.CorePowerW.Len(); i++ {
				st.Step(res.CorePowerW.Row(i), res.DeltaSim)
				res.MaxTempC = append(res.MaxTempC, st.MaxTemp())
			}
		}
		return res, gov, nil
	}

	out := &ThermalResult{ComboID: combo.ID}
	free, _, err := run(params.LimitC, false)
	if err != nil {
		return nil, err
	}
	out.UngovernedMaxTempC = metrics.Summarize(free.MaxTempC).Max

	for _, lim := range limits {
		res, _, err := run(lim, true)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ThermalRow{
			LimitC:      lim,
			MaxTempC:    metrics.Summarize(res.MaxTempC).Max,
			Degradation: metrics.Degradation(res.TotalInstr, base.TotalInstr),
			AvgPowerW:   res.AvgChipPowerW(),
		})
	}
	return out, nil
}
