package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpm/internal/modes"
)

// rowsInstance draws a finite instance whose rows stress the walk and the
// certificates: upgrades that lower power, non-concave rows (a core's second
// upgrade beats its first), free throughput (no power step), upgrades that
// lose throughput (ratios at or below −1), and replicated rows (exact ties).
func rowsInstance(rng *rand.Rand, n int, plan modes.Plan) Instance {
	in := randInstance(rng.Int63(), n, plan, 1)
	m := plan.NumModes()
	for c := 0; c < n; c++ {
		switch rng.Intn(8) {
		case 0: // upgrading to the top mode lowers power
			in.Power[c][0] = in.Power[c][1] * (0.5 + 0.4*rng.Float64())
		case 1: // non-concave: the deepest step gains almost nothing
			if m > 2 {
				in.Instr[c][m-2] = in.Instr[c][m-1] * (1 + 0.01*rng.Float64())
			}
		case 2: // free throughput: a step with no power cost
			in.Power[c][0] = in.Power[c][1]
		case 3: // a step that loses throughput steeply
			in.Instr[c][0] = in.Instr[c][1] - (in.Power[c][0]-in.Power[c][1])*(1+3*rng.Float64())
		case 4: // an exact copy of an earlier core
			if c > 0 {
				src := rng.Intn(c)
				copy(in.Power[c], in.Power[src])
				copy(in.Instr[c], in.Instr[src])
			}
		}
	}
	var turbo float64
	for c := 0; c < n; c++ {
		turbo += in.Power[c][0]
	}
	in.BudgetW = (0.3 + 0.8*rng.Float64()) * turbo
	return in
}

// tiedInstance gives every core one of two small integer rows, so sums are
// exact and permuted vectors tie exactly on (throughput, power): the regime
// in which the default tie mode's answer depends on its greedy seed. A row's
// top step may lower power, or cost power and lose a little throughput, so
// the seed's path can climb above its final power or stop short of it.
func tiedInstance(rng *rand.Rand, n int, plan modes.Plan) Instance {
	m := plan.NumModes()
	var rows [2][2][]float64
	for r := range rows {
		p, i := make([]float64, m), make([]float64, m)
		for mo := m - 1; mo >= 0; mo-- {
			p[mo], i[mo] = float64(2+rng.Intn(3)), float64(4+rng.Intn(9))
			if mo < m-1 {
				p[mo] += p[mo+1]
				i[mo] += i[mo+1]
			}
		}
		switch rng.Intn(3) {
		case 0:
			p[0] = p[1] - float64(1+rng.Intn(2))
		case 1:
			i[0] = i[1] - 1
		}
		rows[r] = [2][]float64{p, i}
	}
	in := Instance{Plan: plan, Power: make([][]float64, n), Instr: make([][]float64, n)}
	var turbo float64
	for c := range in.Power {
		r := rows[rng.Intn(2)]
		in.Power[c], in.Instr[c] = r[0], r[1]
		turbo += r[0][0]
	}
	in.BudgetW = math.Floor((0.3 + 0.7*rng.Float64()) * turbo)
	return in
}

// TestGreedyWalkMatchesHeapAndScan pins the sorted walk to the heap greedy
// it replaced and to the scan kernel: on finite instances it returns the
// scan's vector, and the heap's vector, node count and abort point under a
// sweep of node budgets up to the unbudgeted count (so the two charge the
// checkpoint in the same amounts at the same times). Widths reach past
// insertionMax, so both the insertion and the radix sorts are covered.
func TestGreedyWalkMatchesHeapAndScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	plans := []modes.Plan{plan3(), modes.Linear(5, 0.70, 1.300, 0.010)}
	var w walkScratch
	var g greedyScratch
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		if trial%4 == 0 {
			n = 20 + rng.Intn(180)
		}
		in := rowsInstance(rng, n, plans[trial%len(plans)])
		switch trial % 7 {
		case 0:
			in = replicatedInstance(n, in.Plan, 0.3+0.8*rng.Float64())
		case 1:
			in = tiedInstance(rng, n, in.Plan)
		}
		wv, wn, wab := greedyWalk(&in, nil, &w, nil)
		hv, hn, hab := heapGreedy(in, nil, &g)
		sv, _, _ := greedySolve(in, nil, nil)
		if !wv.Equal(hv) || wn != hn || wab != hab {
			t.Fatalf("trial %d: walk %v (%d nodes) != heap %v (%d nodes)", trial, wv, wn, hv, hn)
		}
		if !wv.Equal(sv) {
			t.Fatalf("trial %d: walk %v != scan %v", trial, wv, sv)
		}
		for limit := int64(1); limit <= wn+1; limit += 1 + int64(rng.Intn(1+int(wn)/40)) {
			wcp, hcp := NewCheckpoint(0, limit), NewCheckpoint(0, limit)
			wv, wn, wab := greedyWalk(&in, wcp, &w, nil)
			wv = wv.Clone()
			hv, hn, hab := heapGreedy(in, hcp, &g)
			if !wv.Equal(hv) || wn != hn || wab != hab || wcp.Nodes() != hcp.Nodes() {
				t.Fatalf("trial %d limit %d: walk %v (%d nodes, aborted %v, charged %d) != heap %v (%d, %v, %d)",
					trial, limit, wv, wn, wab, wcp.Nodes(), hv, hn, hab, hcp.Nodes())
			}
		}
	}
}

// TestGreedyWalkNonFinite pins the walk's two non-finite rules to the scan
// that defines the greedy's sequence: on random instances with NaN, ±Inf, 0
// or −1 written into rows and budget, the walk returns the scan's vector.
// No end-to-end run feeds the greedy such an instance, so this test is what
// holds the rules. Dropping the NaN-ratio rule (a NaN key sorting ahead of
// every ratio) or re-offering stashed steps only after a negative power
// delta (not after a NaN one) each makes it fail. Every 50th instance is
// wider than insertionMax, so the radix sort sees NaN keys too.
func TestGreedyWalkNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	plans := []modes.Plan{plan3(), modes.Linear(5, 0.70, 1.300, 0.010)}
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1}
	var w walkScratch
	const trials = 100_000
	mismatches := 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(10)
		if trial%50 == 0 {
			n = 25 + rng.Intn(40)
		}
		in := rowsInstance(rng, n, plans[trial%len(plans)])
		m := in.NumModes()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			x := poison[rng.Intn(len(poison))]
			c, mo := rng.Intn(n), rng.Intn(m)
			switch rng.Intn(5) {
			case 0, 1:
				in.Power[c][mo] = x
			case 2, 3:
				in.Instr[c][mo] = x
			default:
				in.BudgetW = x
			}
		}
		wv, _, _ := greedyWalk(&in, nil, &w, nil)
		sv, _, _ := greedySolve(in, nil, nil)
		if !wv.Equal(sv) {
			if mismatches == 0 {
				t.Errorf("trial %d: walk %v != scan %v on budget %g, power %v, instr %v",
					trial, wv, sv, in.BudgetW, in.Power, in.Instr)
			}
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Fatalf("walk and scan disagree on %d of %d poisoned instances", mismatches, trials)
	}
}

// TestBudgetCertSound pins budgetCert: on random instances (exact ties,
// non-concave rows, power-lowering upgrades) and in both tie modes, a cold
// BB at any budget inside a completed cluster solve's [lo, hi) returns the
// session's vector. The interval is probed at both ends, inside, and on
// integer-valued instances at every half watt. The two fixed instances are
// default-tie-mode cases where the greedy seed's own steps bound the
// interval: dropping the rejected steps (the first) or the accepted steps
// (the second) from the certificate lets a budget inside it change the
// answer.
func TestBudgetCertSound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	wide := 0
	check := func(name string, tie bool, in Instance, hint Hint, grid bool) {
		t.Helper()
		ses := NewSession(&BB{LexTies: tie})
		defer ses.Close()
		ses.memoOK, ses.deltaOK = false, false
		link := &clusterLink{decision: 1}
		ses.link = link
		v, st := ses.Solve(in, hint)
		c := link.cert
		if !c.ok || st.Aborted {
			t.Fatalf("%s tie=%v: completed solve left no certificate", name, tie)
		}
		if c.lo > in.BudgetW {
			t.Fatalf("%s tie=%v: certificate [%g, %g) starts above its own budget %g", name, tie, c.lo, c.hi, in.BudgetW)
		}
		if c.hi > in.BudgetW {
			wide++
		}
		lo, hi := c.lo, c.hi
		if math.IsInf(lo, -1) {
			lo = math.Min(in.BudgetW, hi) - 20
		}
		if math.IsInf(hi, 1) {
			hi = math.Max(in.BudgetW, lo) + 20
		}
		probes := []float64{lo, math.Nextafter(hi, math.Inf(-1)), in.BudgetW}
		for k := 0; k < 4; k++ {
			probes = append(probes, lo+(hi-lo)*rng.Float64())
		}
		for b := math.Ceil(2*lo) / 2; grid && b < hi && b < lo+20; b += 0.5 {
			probes = append(probes, b)
		}
		for _, b := range probes {
			if !c.holds(b) {
				continue // a degenerate interval, or the solve's own budget outside one
			}
			at := in
			at.BudgetW = b
			want, _ := (&BB{LexTies: tie}).Solve(at)
			if !want.Equal(v) {
				t.Fatalf("%s tie=%v: at budget %g inside [%g, %g) (solved at %g) cold BB returns %v, the certified solve %v",
					name, tie, b, c.lo, c.hi, in.BudgetW, want, v)
			}
		}
	}
	fixed := func(plan modes.Plan, budget float64, power, instr [][]float64) Instance {
		return Instance{Plan: plan, BudgetW: budget, Power: power, Instr: instr}
	}
	check("seed-rejected", false, fixed(plan3(), 10,
		[][]float64{{5, 7, 3}, {5, 7, 3}, {4, 5, 2}},
		[][]float64{{21, 12, 6}, {21, 12, 6}, {20, 9, 5}}), Hint{}, true)
	check("seed-accepted", false, fixed(modes.Linear(4, 0.75, 1.300, 0.010), 39,
		[][]float64{{8, 9, 6, 2}, {9, 10, 7, 3}, {8, 9, 6, 2}, {9, 10, 7, 3}, {9, 10, 7, 3}},
		[][]float64{{29, 18, 14, 9}, {25, 19, 14, 5}, {29, 18, 14, 9}, {25, 19, 14, 5}, {25, 19, 14, 5}}), Hint{}, true)

	plans := []modes.Plan{plan3(), modes.Linear(4, 0.75, 1.300, 0.010)}
	const trials = 800
	wide = 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(8)
		in := rowsInstance(rng, n, plans[trial%len(plans)])
		tied := trial%5 == 1 || trial%5 == 2
		switch {
		case trial%5 == 0:
			in = replicatedInstance(n, in.Plan, 0.3+0.8*rng.Float64())
		case tied:
			in = tiedInstance(rng, n, in.Plan)
		}
		var hint Hint
		if trial%3 == 0 {
			hint.Vector = GreedyInto(nil, in) // a feasible warm floor
		}
		check(fmt.Sprintf("trial %d", trial), trial%2 == 0, in, hint, tied)
	}
	if wide < trials/4 {
		t.Fatalf("only %d of %d certificates reach above their own budget; the test no longer probes reuse", wide, trials)
	}
}

// uncertified is BB under a type a session does not recognize: a session
// over it solves cold, so its solves leave no certificate, and a Hier over
// it re-solves every rebalance offer.
type uncertified struct{ *BB }

// TestHierClusterReuse pins that Hier's rebalance offers are answered from
// certificates — a revert to re-solving every offer reads zero reuses — and
// that the answers stay those of a Hier that re-solves every offer, across
// telemetry drift and the 90 → 60 % budget step.
func TestHierClusterReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in := randInstance(77, 512, plan3(), 0.9)
	turbo := in.BudgetW / 0.9
	ses := NewSession(&Hier{ClusterSize: 8})
	defer ses.Close()
	cold := &Hier{ClusterSize: 8, Inner: uncertified{&BB{}}}
	for step := 0; step < 10; step++ {
		frac := 0.9
		if step >= 5 {
			frac = 0.6
		}
		in.BudgetW = frac * turbo
		cv, _ := cold.Solve(in)
		wv, _ := ses.Solve(in, Hint{Vector: cv})
		if !cv.Equal(wv) {
			t.Fatalf("step %d: session %v != re-solving %v", step, wv, cv)
		}
		in = driftInstance(rng, in)
	}
	if ses.Stats().ClusterReuses == 0 {
		t.Fatal("no rebalance offer was answered from a certificate")
	}
}
