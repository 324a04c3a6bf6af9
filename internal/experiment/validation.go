package experiment

import (
	"gpm/internal/fullsim"
	"gpm/internal/modes"
	"gpm/internal/pool"
	"gpm/internal/workload"
)

// ValidationRow compares one benchmark's single-threaded characterization
// against its behaviour in a full-CMP cycle simulation with co-runners
// (§3.1's cross-check: CMP power stays within a few percent of — and
// consistently below — single-threaded power, while IPC drops more
// noticeably due to shared L2 and bus conflicts).
type ValidationRow struct {
	Benchmark string
	// Single-threaded (trace characterization) values at Turbo, phase 0.
	STPowerW float64
	STIPC    float64
	// Full-CMP values.
	CMPPowerW float64
	CMPIPC    float64
	// Deltas as fractions of the single-threaded value.
	PowerDelta float64
	IPCDelta   float64
}

// ValidationResult aggregates a combo's validation run.
type ValidationResult struct {
	ComboID string
	Rows    []ValidationRow
	// L2WaitCycles is total shared-L2 queueing in the measured window.
	L2WaitCycles uint64
	// MeanIPCDrop is the average fractional IPC reduction (positive = CMP
	// slower), the paper's ≈9% statistic.
	MeanIPCDrop float64
	// MeanPowerDrop is the average fractional power reduction (positive =
	// CMP lower), the paper's ≈5%-and-consistently-lower statistic.
	MeanPowerDrop float64
}

// Validation runs the full-CMP simulator on a combo at all-Turbo and
// compares per-benchmark power and IPC against the single-threaded trace
// characterizations the CMP tool is built from.
func (e *Env) Validation(combo workload.Combo, windowGlobalCycles, warmupInstr uint64) (*ValidationResult, error) {
	chip, err := fullsim.NewWithOptions(e.Cfg, e.Model, e.Plan, combo.Benchmarks, 0, nil,
		fullsim.Options{Workers: pool.Workers(e.Workers)})
	if err != nil {
		return nil, err
	}
	chip.Warm(warmupInstr)
	acts := chip.Measure(windowGlobalCycles)

	out := &ValidationResult{ComboID: combo.ID}
	for c, name := range combo.Benchmarks {
		pr, err := e.Lib.Profile(name)
		if err != nil {
			return nil, err
		}
		st := pr.Behavior[modes.Turbo][0]
		cmpP := e.Model.CorePower(acts[c], e.Plan, modes.Turbo)
		row := ValidationRow{
			Benchmark: name,
			STPowerW:  st.PowerW,
			STIPC:     st.IPC,
			CMPPowerW: cmpP,
			CMPIPC:    acts[c].IPC(),
		}
		row.PowerDelta = 1 - row.CMPPowerW/row.STPowerW
		row.IPCDelta = 1 - row.CMPIPC/row.STIPC
		out.Rows = append(out.Rows, row)
		out.MeanIPCDrop += row.IPCDelta / float64(combo.Cores())
		out.MeanPowerDrop += row.PowerDelta / float64(combo.Cores())
	}
	_, wait := chip.L2().Contention()
	out.L2WaitCycles = wait
	return out, nil
}
