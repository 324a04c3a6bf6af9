package experiment

import (
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/modes"
	"gpm/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 2: measured ∆PowerSavings : ∆PerformanceDegradation per mode, for
// the two corner benchmarks and the suite average.
// ---------------------------------------------------------------------------

// Figure2Entry holds one bar pair of Fig 2.
type Figure2Entry struct {
	Benchmark       string // "sixtrack", "mcf", or "overall"
	Mode            string
	PowerSavings    float64
	PerfDegradation float64
}

// Figure2 measures whole-program power savings and performance degradation
// for each mode, per corner benchmark and averaged over the full suite.
func (e *Env) Figure2() ([]Figure2Entry, error) {
	perBench := func(name string) ([]float64, []float64, error) {
		pr, err := e.Lib.Profile(name)
		if err != nil {
			return nil, nil, err
		}
		pT, tT := pr.WholeProgram(modes.Turbo)
		nm := e.Plan.NumModes()
		sav := make([]float64, nm)
		deg := make([]float64, nm)
		for m := 1; m < nm; m++ {
			p, t := pr.WholeProgram(modes.Mode(m))
			sav[m] = 1 - p/pT
			deg[m] = 1 - tT/t
		}
		return sav, deg, nil
	}

	var out []Figure2Entry
	appendRows := func(label string, sav, deg []float64) {
		for m := 0; m < e.Plan.NumModes(); m++ {
			out = append(out, Figure2Entry{
				Benchmark:       label,
				Mode:            e.Plan.Name(modes.Mode(m)),
				PowerSavings:    sav[m],
				PerfDegradation: deg[m],
			})
		}
	}

	for _, corner := range []string{"sixtrack", "mcf"} {
		sav, deg, err := perBench(corner)
		if err != nil {
			return nil, err
		}
		appendRows(corner, sav, deg)
	}

	names := workload.Names()
	avgSav := make([]float64, e.Plan.NumModes())
	avgDeg := make([]float64, e.Plan.NumModes())
	for _, n := range names {
		sav, deg, err := perBench(n)
		if err != nil {
			return nil, err
		}
		for m := range avgSav {
			avgSav[m] += sav[m] / float64(len(names))
			avgDeg[m] += deg[m] / float64(len(names))
		}
	}
	appendRows("overall", avgSav, avgDeg)
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 3: chip power timelines for chip-wide DVFS vs MaxBIPS at a fixed
// 83% budget, for the baseline 4-way combo and its sixtrack variant.
// ---------------------------------------------------------------------------

// Fig3Budget is the fixed budget fraction of Fig 3.
const Fig3Budget = 0.83

// Figure3Series is one panel of Fig 3.
type Figure3Series struct {
	ComboID string
	Policy  string
	// TimeUs[i] and ChipPowerFrac[i] (fraction of max chip power) sample the
	// run at delta-sim resolution; BudgetFrac is the horizontal budget line.
	TimeUs        []float64
	ChipPowerFrac []float64
	BudgetFrac    float64
	Degradation   float64
	AvgPowerFrac  float64
}

// Figure3 produces the four panels.
func (e *Env) Figure3() ([]Figure3Series, error) {
	combos := []workload.Combo{workload.FourWay[0], workload.Fig3Alternate}
	policies := []core.Policy{core.ChipWideDVFS{}, core.MaxBIPS{}}
	var out []Figure3Series
	for _, combo := range combos {
		base, err := e.Baseline(combo)
		if err != nil {
			return nil, err
		}
		maxP := base.EnvelopePowerW()
		for _, pol := range policies {
			res, _, err := e.RunPolicy(combo, pol, Fig3Budget)
			if err != nil {
				return nil, err
			}
			s := Figure3Series{
				ComboID:      combo.ID,
				Policy:       pol.Name(),
				BudgetFrac:   Fig3Budget,
				Degradation:  1 - res.TotalInstr/base.TotalInstr,
				AvgPowerFrac: res.AvgChipPowerW() / maxP,
			}
			for i, p := range res.ChipPowerW {
				s.TimeUs = append(s.TimeUs, float64(i)*res.DeltaSim.Seconds()*1e6)
				s.ChipPowerFrac = append(s.ChipPowerFrac, p/maxP)
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 4: policy curves, budget curves and weighted slowdowns for the
// (ammp, mcf, crafty, art) combination across the budget sweep.
// ---------------------------------------------------------------------------

// Figure4Result bundles the three panels of Fig 4.
type Figure4Result struct {
	ComboID string
	Curves  []*PolicyCurve
}

// Fig4Policies returns the paper's Fig 4 policy set.
func Fig4Policies() []core.Policy {
	return []core.Policy{core.PullHiPushLo{}, core.Priority{}, core.MaxBIPS{}, core.ChipWideDVFS{}}
}

// Figure4 sweeps the four §5.2/§5.3 policies on the baseline 4-way combo as
// one (policy × budget) fan-out on the env's worker pool.
func (e *Env) Figure4() (*Figure4Result, error) {
	combo := workload.FourWay[0]
	curves, err := e.Curves(combo, Fig4Policies())
	if err != nil {
		return nil, err
	}
	return &Figure4Result{ComboID: combo.ID, Curves: curves}, nil
}

// ---------------------------------------------------------------------------
// Figure 5: achieved power saving vs performance degradation per policy per
// budget, against the 3:1 target line.
// ---------------------------------------------------------------------------

// Figure5Point is one scatter point of Fig 5.
type Figure5Point struct {
	Policy          string
	BudgetFrac      float64
	PowerSaving     float64
	PerfDegradation float64
}

// Figure5 derives the scatter from the Fig 4 sweeps.
func (e *Env) Figure5() ([]Figure5Point, error) {
	f4, err := e.Figure4()
	if err != nil {
		return nil, err
	}
	var out []Figure5Point
	for _, c := range f4.Curves {
		for i := range c.Budgets {
			out = append(out, Figure5Point{
				Policy:          c.Policy,
				BudgetFrac:      c.Budgets[i],
				PowerSaving:     c.PowerSaving[i],
				PerfDegradation: c.Degradation[i],
			})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 6: MaxBIPS execution timeline with the budget dropping from 90% to
// 70% mid-run; per-application power and performance shares.
// ---------------------------------------------------------------------------

// Figure6Result holds the two stacked panels.
type Figure6Result struct {
	ComboID    string
	Benchmarks []string
	TimeUs     []float64
	// CorePowerFrac[c][i] is core c's power as a fraction of max chip power.
	CorePowerFrac [][]float64
	// CoreBIPSFrac[c][i] is core c's delta-interval BIPS as a fraction of the
	// all-Turbo average chip BIPS (instantaneous values may exceed 100% in
	// aggregate, as in the paper).
	CoreBIPSFrac [][]float64
	// BudgetFrac[i] tracks the budget line.
	BudgetFrac []float64
	// AvgBIPSBefore/After are chip BIPS fractions in the two budget regions.
	AvgBIPSBefore, AvgBIPSAfter float64
	DropAtUs                    float64
}

// Figure6 reproduces the budget-drop scenario (90% → 70%).
func (e *Env) Figure6(dropAt time.Duration) (*Figure6Result, error) {
	combo := workload.FourWay[0]
	base, err := e.Baseline(combo)
	if err != nil {
		return nil, err
	}
	maxP := base.EnvelopePowerW()
	res, err := e.Run(combo, core.MaxBIPS{}, cmpsim.StepBudget(0.9*maxP, 0.7*maxP, dropAt))
	if err != nil {
		return nil, err
	}
	n := combo.Cores()
	out := &Figure6Result{
		ComboID:       combo.ID,
		Benchmarks:    combo.Benchmarks,
		CorePowerFrac: make([][]float64, n),
		CoreBIPSFrac:  make([][]float64, n),
		DropAtUs:      dropAt.Seconds() * 1e6,
	}
	// All-Turbo average chip instructions per delta interval.
	baseInstrPerDelta := base.TotalInstr / float64(len(base.ChipPowerW))
	var sumPre, sumPost, nPre, nPost float64
	for i := range res.ChipPowerW {
		t := float64(i) * res.DeltaSim.Seconds() * 1e6
		out.TimeUs = append(out.TimeUs, t)
		out.BudgetFrac = append(out.BudgetFrac, res.BudgetW[i]/maxP)
		var chipInstr float64
		for c := 0; c < n; c++ {
			out.CorePowerFrac[c] = append(out.CorePowerFrac[c], res.CorePowerW.At(i, c)/maxP)
			frac := res.CoreInstr.At(i, c) / baseInstrPerDelta
			out.CoreBIPSFrac[c] = append(out.CoreBIPSFrac[c], frac)
			chipInstr += res.CoreInstr.At(i, c)
		}
		if t < out.DropAtUs {
			sumPre += chipInstr / baseInstrPerDelta
			nPre++
		} else {
			sumPost += chipInstr / baseInstrPerDelta
			nPost++
		}
	}
	if nPre > 0 {
		out.AvgBIPSBefore = sumPre / nPre
	}
	if nPost > 0 {
		out.AvgBIPSAfter = sumPost / nPost
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 7: MaxBIPS vs the oracle upper bound, the optimistic-static lower
// bound, and chip-wide DVFS, on the baseline 4-way combo.
// ---------------------------------------------------------------------------

// Figure7 returns the four curves of Fig 7 (policy curves and weighted
// slowdowns are both carried by PolicyCurve).
func (e *Env) Figure7() (*Figure4Result, error) {
	combo := workload.FourWay[0]
	curves, err := e.Curves(combo, []core.Policy{core.ChipWideDVFS{}, core.MaxBIPS{}, core.Oracle{}})
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{ComboID: combo.ID, Curves: curves}
	st, err := e.StaticCurve(combo)
	if err != nil {
		return nil, err
	}
	res.Curves = append(res.Curves, st)
	return res, nil
}

// ---------------------------------------------------------------------------
// Figures 8, 9, 10: policy curves per Table 2 combo at 2, 4 and 8 cores.
// ---------------------------------------------------------------------------

// ScalingResult holds the curves for every combo of one CMP width.
type ScalingResult struct {
	Cores  int
	Combos []Figure4Result
}

// FigureScaling produces the Fig 8 (n=2), Fig 9 (n=4) or Fig 10 (n=8)
// panels: ChipWideDVFS, Static, MaxBIPS and Oracle per combo.
func (e *Env) FigureScaling(n int) (*ScalingResult, error) {
	combos, err := comboForWidth(n)
	if err != nil {
		return nil, err
	}
	out := &ScalingResult{Cores: n}
	for _, combo := range combos {
		curves, err := e.Curves(combo, []core.Policy{core.ChipWideDVFS{}, core.MaxBIPS{}, core.Oracle{}})
		if err != nil {
			return nil, err
		}
		fr := Figure4Result{ComboID: combo.ID, Curves: curves}
		st, err := e.StaticCurve(combo)
		if err != nil {
			return nil, err
		}
		fr.Curves = append(fr.Curves, st)
		out.Combos = append(out.Combos, fr)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 11: average degradation over the oracle for MaxBIPS, Static and
// ChipWideDVFS as the chip scales from 1 to 8 cores.
// ---------------------------------------------------------------------------

// Figure11Row is one core-count column of Fig 11.
type Figure11Row struct {
	Cores int
	// Values are mean (over budgets and combos) degradation in excess of the
	// oracle's, per approach.
	MaxBIPS, Static, ChipWide float64
}

// Figure11 computes the scaling-trend summary. Each width uses its Table 2
// combos; width 1 uses the four baseline benchmarks individually (MaxBIPS
// degenerates to chip-wide DVFS there, as the paper notes).
func (e *Env) Figure11(widths []int) ([]Figure11Row, error) {
	if widths == nil {
		widths = []int{1, 2, 4, 8}
	}
	var rows []Figure11Row
	for _, n := range widths {
		combos, err := comboForWidth(n)
		if err != nil {
			return nil, err
		}
		row := Figure11Row{Cores: n}
		for _, combo := range combos {
			curves, err := e.Curves(combo, []core.Policy{core.Oracle{}, core.MaxBIPS{}, core.ChipWideDVFS{}})
			if err != nil {
				return nil, err
			}
			oracle, mb, cw := curves[0], curves[1], curves[2]
			st, err := e.StaticCurve(combo)
			if err != nil {
				return nil, err
			}
			k := float64(len(combos))
			row.MaxBIPS += degradationGap(mb, oracle) / k
			row.ChipWide += degradationGap(cw, oracle) / k
			row.Static += degradationGap(st, oracle) / k
		}
		rows = append(rows, row)
	}
	return rows, nil
}
