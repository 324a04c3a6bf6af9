package solver

import (
	"time"

	"gpm/internal/modes"
)

// maxEnumerable bounds the vector count Exhaustive will attempt; beyond it
// the solver degrades to the greedy heuristic (Exact=false) instead of
// running for hours. 2^31 vectors is already minutes of work.
const maxEnumerable = int64(1) << 31

// smallEnumeration is the vector count up to which MaxBIPS enumerates even
// where branch-and-bound is exact: enumerating 81 vectors or fewer (4 cores
// at three modes, 3 at four, 2 at five) costs less than BB's frontier build
// and greedy seed. Random instances on a 2-vCPU Xeon KVM guest (go1.24.0):
// 9 vectors 0.52 µs enumerated vs 0.99 µs by BB, 81 vectors 1.05 vs 1.34,
// 125 vectors 1.39 vs 1.20, 243 vectors 2.51 vs 1.31.
const smallEnumeration = 81

// Exhaustive is the brute-force reference solver and the definition of the
// paper's MaxBIPS (§5.2.3) and Oracle (§5.6) decisions: it scores every
// modes^cores vector in lexicographic order (core 0 most significant) and
// keeps the best under the strict improvement rule, so ties resolve to
// lower power, then to the lexicographically smallest vector. MaxBIPS
// returns its vector, past smallEnumeration vectors without enumerating.
//
// A vector is skipped only when its predicted power exceeds the budget, and
// the running best starts as the all-deepest vector at throughput −1. A NaN
// power entry therefore does not disqualify a vector by itself — MaxBIPS's
// long-standing behaviour on poisoned telemetry.
type Exhaustive struct{}

// MaxBIPS returns exactly the vector Exhaustive returns on in, by
// branch-and-bound where that is provably the same answer. BB{LexTies: true}
// answers when the budget and every matrix entry are finite, every Instr
// entry is ≥ 0, and in is enumerable (at most 2^31 vectors: 19 cores at
// three modes). There BB visits leaves in the same lexicographic order,
// scores them with the same canonical sums and replaces its incumbent under
// the same strict rule, and it prunes only subtrees that cannot hold a
// better or lex-earlier tied leaf. Exhaustive's −1 starting throughput
// matters only when a feasible vector can score ≤ −1, which non-negative
// Instr rules out. Every other instance (poisoned telemetry, negative
// predictions, widths past the enumerable limit, where Exhaustive falls back
// to greedy) goes to Exhaustive itself, and so do instances of at most
// smallEnumeration vectors, which it enumerates faster. Stats.Solver names
// the solver that answered.
//
// The answer is written into dst, grown first when it is shorter than
// in.NumCores(), and returned; on finite instances a long enough dst makes
// the call allocation-free.
func MaxBIPS(dst modes.Vector, in Instance) (modes.Vector, Stats) {
	if !vectorsAtMost(in, smallEnumeration) && lexBBExact(in) {
		return (&BB{LexTies: true}).solveCold(dst, in, nil)
	}
	return Exhaustive{}.solveInto(dst, in, nil)
}

// lexBBExact reports that in meets MaxBIPS's conditions for answering by
// BB{LexTies: true}.
func lexBBExact(in Instance) bool {
	if !enumerable(in) || !finiteInstance(&in) {
		return false
	}
	for _, row := range in.Instr {
		for _, q := range row {
			if q < 0 {
				return false
			}
		}
	}
	return true
}

// Name implements Solver.
func (Exhaustive) Name() string { return "exhaustive" }

// Solve implements Solver.
func (e Exhaustive) Solve(in Instance) (modes.Vector, Stats) {
	return e.SolveBounded(in, nil)
}

// SolveBounded implements Bounded. Nodes are charged to the checkpoint in
// cpBatch batches; an aborted solve returns the best vector seen before the
// cut (the all-deepest floor if nothing qualified yet).
func (e Exhaustive) SolveBounded(in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	return e.solveInto(nil, in, cp)
}

// solveInto is SolveBounded building its answer in dst (see resizeVector).
func (e Exhaustive) solveInto(dst modes.Vector, in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	start := time.Now()
	st := Stats{Solver: e.Name(), Exact: true}
	var v modes.Vector
	if enumerable(in) {
		v, st.Nodes, st.Aborted = enumerate(dst, in, cp)
	} else {
		// Refuse intractable instances: fall back to greedy rather than hang.
		var gst Stats
		v, gst = Greedy{}.solveCold(dst, in, cp)
		st.Nodes, st.Aborted, st.Exact = gst.Nodes, gst.Aborted, false
	}
	if st.Aborted {
		st.Exact = false
	}
	st.Elapsed = time.Since(start)
	return v, st
}

// enumerable reports whether modes^cores stays within maxEnumerable.
func enumerable(in Instance) bool { return vectorsAtMost(in, maxEnumerable) }

// vectorsAtMost reports whether modes^cores is at most limit.
func vectorsAtMost(in Instance, limit int64) bool {
	m := int64(in.NumModes())
	total := int64(1)
	for c := 0; c < in.NumCores(); c++ {
		if total > limit/m {
			return false
		}
		total *= m
	}
	return true
}

// enumerate is the exhaustive kernel: an odometer over all vectors with
// canonical-order partial sums. pw[c] and ins[c] hold the power and
// throughput of cores 0..c-1 folded left from zero, so pw[n] is
// bit-identical to VectorPower(v), and each step re-sums only the cores at
// and below the digit the odometer changed. The sums and the odometer live
// on the stack at every enumerable width of a multi-mode plan (at most 31
// cores), and the best vector is built in dst, so a long enough dst leaves
// no allocation.
func enumerate(dst modes.Vector, in Instance, cp *Checkpoint) (best modes.Vector, nodes int64, aborted bool) {
	n, m := in.NumCores(), in.NumModes()
	var odo [32]modes.Mode
	var v modes.Vector = odo[:0]
	if n > len(odo) {
		v = make(modes.Vector, n)
	}
	v = v[:n]
	best = resizeVector(dst, n)
	deep := modes.Mode(m - 1)
	for c := range best {
		best[c] = deep
	}
	bestT, bestP := -1.0, 0.0
	var stack [64]float64
	sums := stack[:]
	if 2*(n+1) > len(sums) {
		sums = make([]float64, 2*(n+1))
	}
	pw, ins := sums[:n+1], sums[n+1:2*(n+1)]
	var debt int64
	for from := 0; ; {
		for c := from; c < n; c++ {
			pw[c+1] = pw[c] + in.Power[c][v[c]]
			ins[c+1] = ins[c] + in.Instr[c][v[c]]
		}
		nodes++
		if cp != nil {
			debt++
			if debt >= cpBatch {
				if cp.Visit(debt) {
					return best, nodes, true
				}
				debt = 0
			}
		}
		if p := pw[n]; !(p > in.BudgetW) && better(ins[n], p, bestT, bestP) {
			bestT, bestP = ins[n], p
			copy(best, v)
		}
		// Odometer step: bump the last core, carrying leftwards.
		from = n - 1
		for from >= 0 {
			v[from]++
			if int(v[from]) < m {
				break
			}
			v[from] = 0
			from--
		}
		if from < 0 {
			return best, nodes, false
		}
	}
}
