package calib

import "gpm/internal/obs"

// str hashes s with a zero terminator, so adjacent strings cannot run
// together.
func str(w *obs.Digest, s string) {
	w.Text(s)
	w.Text("\x00")
}

func hashFit(w *obs.Digest, f Fit) {
	w.Float(float64(f.N))
	w.Float(f.MAPE)
	w.Float(f.Bias)
	w.Float(f.R)
	w.Flag(f.RDefined)
}

// ScoreFingerprint hashes every numeric series and fit statistic of a
// calibration Score bit-exactly, so any drift in the predictor, the trace
// schema, or the scoring pairing changes the hash.
func ScoreFingerprint(s *Score) uint64 {
	w := obs.NewDigest()
	str(&w, s.Substrate)
	str(&w, s.Policy)
	str(&w, s.ComboID)
	w.Float(s.MeanBudgetW)
	w.Float(float64(s.Intervals))
	hashFit(&w, s.Power)
	hashFit(&w, s.Instr)
	for i := range s.PredPowerW {
		w.Float(s.PredPowerW[i])
		w.Float(s.ActualPowerW[i])
		w.Float(s.PredInstr[i])
		w.Float(s.ActualInstr[i])
	}
	return w.Sum()
}

// ReplayFingerprint hashes a counterfactual replay's full per-interval regret
// series and cumulative totals bit-exactly.
func ReplayFingerprint(r *ReplayResult) uint64 {
	w := obs.NewDigest()
	str(&w, r.Policy)
	str(&w, r.RecordedPolicy)
	for i := range r.Intervals {
		ir := &r.Intervals[i]
		w.Float(float64(ir.Interval))
		w.Float(float64(ir.NowNs))
		w.Float(ir.BudgetW)
		w.Float(ir.RecordedInstr)
		w.Float(ir.PolicyInstr)
		w.Float(ir.OracleInstr)
		w.Float(ir.RecordedPowerW)
		w.Float(ir.PolicyPowerW)
		w.Float(ir.OraclePowerW)
		w.Float(ir.VsRecorded)
		w.Float(ir.VsOracle)
		w.Flag(ir.Matched)
	}
	w.Float(r.CumVsRecorded)
	w.Float(r.CumVsOracle)
	w.Float(r.RecordedVsOracle)
	w.Float(float64(r.Matches))
	return w.Sum()
}
