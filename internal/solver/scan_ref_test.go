package solver

import "gpm/internal/modes"

// greedySolve is the O(n²·m) scan that defines the greedy's upgrade
// sequence, kept as the reference greedyWalk must reproduce on every
// instance, non-finite ones included (TestGreedyWalkNonFinite). Each pass
// scores every core's next upgrade and applies the first maximum ratio above
// −1 among those that fit; comparisons with NaN are false, so a NaN ratio is
// never selected and a NaN sum never exceeds the budget. The checkpoint is
// charged once per pass. The vector is built in buf when it has the capacity
// (nil allocates a fresh one).
func greedySolve(in Instance, cp *Checkpoint, buf modes.Vector) (v modes.Vector, nodes int64, aborted bool) {
	n := in.NumCores()
	v = resizeVector(buf, n)
	deep := modes.Mode(in.NumModes() - 1)
	for c := range v {
		v[c] = deep
	}
	power := in.VectorPower(v)
	if power > in.BudgetW {
		return v, nodes, false // even the floor exceeds the budget
	}
	for {
		passStart := nodes
		bestCore := -1
		bestRatio := -1.0
		var bestDP float64
		for c := 0; c < n; c++ {
			if v[c] == 0 {
				continue
			}
			dp, ratio := upgradeDelta(in.Power[c], in.Instr[c], v[c])
			nodes++
			if power+dp > in.BudgetW {
				continue
			}
			if ratio > bestRatio {
				bestRatio = ratio
				bestCore = c
				bestDP = dp
			}
		}
		if cp.Visit(nodes - passStart) {
			return v, nodes, true
		}
		if bestCore < 0 {
			return v, nodes, false
		}
		v[bestCore]--
		power += bestDP
	}
}
