package solver

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"gpm/internal/modes"
)

// BB is an exact branch-and-bound solver. It branches on cores in index
// order (mode 0 first, so leaves are reached in lexicographic order), seeds
// its incumbent with the greedy heuristic, and prunes with two tests:
//
//   - feasibility: prefix power plus the suffix's minimum power already
//     exceeds the budget;
//   - bound: the fractional relaxation — each undecided core may take any
//     convex combination of its efficient (power, instr) points — cannot
//     beat the incumbent. The relaxation is solved in closed form by
//     water-filling the remaining budget over the per-core convex-hull
//     segments in decreasing ΔBIPS/ΔW order.
//
// Leaves are scored with canonical core-order sums, so an accepted vector's
// (throughput, power) is bit-identical to the exhaustive kernel's score of
// the same vector.
type BB struct {
	// NodeLimit caps branch nodes; 0 means unlimited. When exceeded, BB
	// returns its incumbent with Exact=false (an anytime cutoff for
	// thousand-core instances).
	NodeLimit int64
	// LexTies makes BB reproduce the exhaustive kernel bit-for-bit: pruning
	// keeps subtrees that merely *tie* the incumbent's throughput, so among
	// equal-(throughput, power) optima the lexicographically smallest
	// vector survives, exactly as lexicographic enumeration with strict
	// improvement would pick. The default prunes ties, which preserves the
	// optimal value but may return a different representative on exact
	// ties; symmetric instances (replicated cores) then branch far less.
	LexTies bool
}

// Name implements Solver.
func (*BB) Name() string { return "bb" }

// frontier is the precomputed relaxation machinery for one instance. Its
// slices double as reusable scratch: a Session rebuilds the same frontier
// value every interval without allocating.
type frontier struct {
	// baseP/baseI are each core's minimum-power efficient point.
	baseP, baseI []float64
	// sufP/sufI[c] sum baseP/baseI over cores c..n-1 (sufP[n] == 0).
	sufP, sufI []float64
	// segs are all cores' hull segments, sorted by decreasing ΔI/ΔP.
	segs []segment
	// pts/hull are per-core sort scratch for build.
	pts, hull []hullPt
}

type segment struct {
	core   int
	dP, dI float64
	ratio  float64
	// seq is the pre-sort emission index; the fast sort uses it as the final
	// tiebreak so its order equals the stable sort's exactly.
	seq int32
}

type hullPt struct{ p, i float64 }

// build computes per-core efficient frontiers (upper-left convex hulls of
// the (power, instr) mode points) and the suffix aggregates the bound
// needs, filling f in place and reusing its buffers. fast selects the
// allocation-free sorts: insertion sort for the per-core mode points, and
// for the global segment order insertion sort up to insertionMax segments,
// slices.SortFunc (with the seq tiebreak) beyond. All
// produce exactly the stable sorts' order on finite instances: point ties
// are value-identical duplicates, and the segment comparator extended by seq
// is a total order whose restriction to (ratio, core) matches
// sort.SliceStable's stable tie handling (pinned by
// TestFrontierFastSortsBitIdentical). Non-finite entries (NaN keys) are only
// handled by the stable sorts, so every caller gates the fast path on
// finiteInstance.
func (f *frontier) build(in Instance, fast bool) {
	n, m := in.NumCores(), in.NumModes()
	f.baseP = resizeFloats(f.baseP, n)
	f.baseI = resizeFloats(f.baseI, n)
	f.sufP = resizeFloats(f.sufP, n+1)
	f.sufI = resizeFloats(f.sufI, n+1)
	f.segs = f.segs[:0]
	for c := 0; c < n; c++ {
		pts := f.pts[:0]
		for mo := 0; mo < m; mo++ {
			pts = append(pts, hullPt{in.Power[c][mo], in.Instr[c][mo]})
		}
		if fast {
			// Insertion sort by (p asc, i desc): m is small and the keys are
			// finite, so this matches sort.Slice's order (ties are
			// value-identical points).
			for a := 1; a < len(pts); a++ {
				q := pts[a]
				b := a - 1
				for b >= 0 && (pts[b].p > q.p || (pts[b].p == q.p && pts[b].i < q.i)) {
					pts[b+1] = pts[b]
					b--
				}
				pts[b+1] = q
			}
		} else {
			sort.Slice(pts, func(a, b int) bool {
				if pts[a].p != pts[b].p {
					return pts[a].p < pts[b].p
				}
				return pts[a].i > pts[b].i
			})
		}
		f.pts = pts
		// Drop dominated points (≥ power for ≤ instr), then keep the concave
		// hull: slopes must strictly decrease left to right.
		hull := f.hull[:0]
		for _, q := range pts {
			if len(hull) > 0 && q.i <= hull[len(hull)-1].i {
				continue // dominated (incl. equal-power duplicates)
			}
			for len(hull) >= 2 {
				a, b := hull[len(hull)-2], hull[len(hull)-1]
				// Pop b if the a→q slope is at least the a→b slope.
				if (q.i-a.i)*(b.p-a.p) >= (b.i-a.i)*(q.p-a.p) {
					hull = hull[:len(hull)-1]
				} else {
					break
				}
			}
			hull = append(hull, q)
		}
		f.hull = hull
		f.baseP[c] = hull[0].p
		f.baseI[c] = hull[0].i
		for k := 1; k < len(hull); k++ {
			dP := hull[k].p - hull[k-1].p
			dI := hull[k].i - hull[k-1].i
			f.segs = append(f.segs, segment{
				core: c, dP: dP, dI: dI, ratio: dI / dP, seq: int32(len(f.segs)),
			})
		}
	}
	for c := n - 1; c >= 0; c-- {
		f.sufP[c] = f.sufP[c+1] + f.baseP[c]
		f.sufI[c] = f.sufI[c+1] + f.baseI[c]
	}
	if fast && len(f.segs) <= insertionMax {
		// A cluster's few segments: stable insertion sort by (ratio desc,
		// core asc), the order the seq-extended comparator below gives.
		segs := f.segs
		for a := 1; a < len(segs); a++ {
			q := segs[a]
			b := a - 1
			for b >= 0 && (segs[b].ratio < q.ratio || segs[b].ratio == q.ratio && segs[b].core > q.core) {
				segs[b+1] = segs[b]
				b--
			}
			segs[b+1] = q
		}
	} else if fast {
		slices.SortFunc(f.segs, func(a, b segment) int {
			if a.ratio != b.ratio {
				if a.ratio > b.ratio {
					return -1
				}
				return 1
			}
			if a.core != b.core {
				if a.core < b.core {
					return -1
				}
				return 1
			}
			return int(a.seq - b.seq)
		})
	} else {
		sort.SliceStable(f.segs, func(a, b int) bool {
			if f.segs[a].ratio != f.segs[b].ratio {
				return f.segs[a].ratio > f.segs[b].ratio
			}
			return f.segs[a].core < f.segs[b].core
		})
	}
}

// bound returns a throughput upper bound for completions of a prefix that
// has fixed cores 0..c-1 at (usedP, usedI), or -Inf when no completion can
// fit budgetW (eps is the instance's budgetEps). The result is inflated by
// a tiny relative slack so float associativity differences can never prune
// a genuinely optimal leaf. slope is the water-fill's rate at budgetW: the
// ratio of the segment it fills partly, or 0 when every segment is full.
// The relaxation is concave in the budget, so it rises by at most slope per
// extra watt.
func (f *frontier) bound(budgetW, eps float64, c int, usedP, usedI float64) (ub, slope float64) {
	slack := budgetW - usedP - f.sufP[c]
	if slack < -eps {
		return math.Inf(-1), 0
	}
	if slack < 0 {
		slack = 0
	}
	ub = usedI + f.sufI[c]
	for _, s := range f.segs {
		if s.core < c {
			continue
		}
		if s.dP <= slack {
			ub += s.dI
			slack -= s.dP
		} else {
			ub += s.dI * slack / s.dP
			slope = s.ratio
			break
		}
	}
	return ub + 1e-9*(1+math.Abs(ub)), slope
}

// Solve implements Solver.
func (b *BB) Solve(in Instance) (modes.Vector, Stats) {
	return b.SolveBounded(in, nil)
}

// SolveBounded implements Bounded. Branch nodes are charged to the
// checkpoint in cpBatch batches; an exhausted checkpoint stops the DFS at
// its incumbent, exactly like an exceeded NodeLimit.
//
// The solve borrows its frontier, greedy seed and DFS state from the
// coldScratch free list, and builds the frontier with the fast sorts on
// finite instances (order-identical there), so a finite solve's one
// allocation is the returned copy (none when MaxBIPS builds the answer in
// its caller's vector).
func (b *BB) SolveBounded(in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	return b.solveCold(nil, in, cp)
}

// solveCold is SolveBounded copying its answer into dst (see resizeVector)
// instead of a fresh vector.
func (b *BB) solveCold(dst modes.Vector, in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	start := time.Now()
	n := in.NumCores()
	if n == 0 {
		return resizeVector(dst, 0), Stats{Solver: b.Name(), Exact: true, Elapsed: time.Since(start)}
	}
	cs := takeColdBB()
	cs.frontier.build(in, finiteInstance(in))
	// Greedy incumbent seed. In LexTies mode the seed only tightens the
	// pruning floor — the incumbent vector must be discovered by the lex
	// DFS itself, or a greedy optimum could shadow a lex-smaller tie.
	gv, _, _ := greedySolve(in, cp, cs.seed)
	// Entries are shared by solves of every width: size the incumbent so
	// the DFS overwrites it in place.
	cs.state.best = resizeVector(cs.state.best, n)
	v, st := b.solveFrom(in, cp, &cs.bbScratch, gv, math.Inf(-1), start, nil)
	// v may alias the seed or incumbent buffer: copy it out, and drop the
	// references to the caller's matrices and checkpoint before giving the
	// entry back.
	dst = resizeVector(dst, n)
	copy(dst, v)
	v = dst
	cs.seed = gv
	cs.state = bbState{v: cs.state.v, best: cs.state.best}
	giveColdBB(cs)
	return v, st
}

// bbScratch is BB's reusable machinery, owned by a Session or borrowed by
// a cold solve: the frontier (with its sort scratch) and the DFS state, so
// solves allocate nothing in steady state.
type bbScratch struct {
	frontier frontier
	state    bbState
}

// coldBB is a cold solve's borrowed machinery: BB's scratch plus the buffer
// the greedy seed is built in.
type coldBB struct {
	bbScratch
	seed modes.Vector
}

// coldScratch is the free list cold BB solves borrow their machinery from.
// takeColdBB hands one goroutine exclusive use of an entry until its
// giveColdBB, so concurrent cold solves (sweep workers sharing one policy
// value) never share a buffer. It is a mutex-guarded list rather than a
// sync.Pool because a sync.Pool drops items at random under the race
// detector, which makes the allocation counts of runs through core.MaxBIPS
// differ from run to run under -race; the engine's allocation tests
// compare exactly those counts.
var coldScratch struct {
	sync.Mutex
	free []*coldBB
}

// maxColdScratch bounds the memory the free list keeps. It needs one entry
// per goroutine solving at once; entries beyond the bound go to the garbage
// collector.
const maxColdScratch = 64

func takeColdBB() *coldBB {
	coldScratch.Lock()
	defer coldScratch.Unlock()
	if k := len(coldScratch.free); k > 0 {
		cs := coldScratch.free[k-1]
		coldScratch.free = coldScratch.free[:k-1]
		return cs
	}
	return new(coldBB)
}

func giveColdBB(cs *coldBB) {
	coldScratch.Lock()
	defer coldScratch.Unlock()
	if len(coldScratch.free) < maxColdScratch {
		coldScratch.free = append(coldScratch.free, cs)
	}
}

// solveFrom runs the branch-and-bound DFS over a prebuilt frontier with a
// given greedy seed and an optional extra pruning floor (the session's warm
// hint, re-scored on this instance). The floor only tightens pruning — it
// never seeds the incumbent vector — so for any floor ≤ the instance
// optimum the returned vector is bit-identical to a cold solve in both tie
// modes:
//
//   - the final incumbent is the first-visited leaf maximizing
//     (throughput, −power) among feasible leaves, and every subtree holding
//     such a leaf has a relaxation bound strictly above the optimum (bound
//     adds positive relative slack), so no floor ≤ the optimum prunes it
//     under either the `< floor` (LexTies / no incumbent yet) or `≤ floor`
//     (incumbent held) test;
//   - visit order is fixed by the DFS and leaves score with the same
//     canonical sums, so the incumbent replacement chain ends identically.
//
// sc supplies the built frontier and reusable DFS state (vector and
// incumbent buffers); the returned vector may alias sc or gv.
//
// A non-nil cert carries the seed's budget interval in; a DFS that runs to
// completion narrows it with its own evidence and marks it ok (see
// budgetCert). The floor at any prune is at most the final optimum, which
// is what lets a pruned node's evidence speak for the final answer.
func (b *BB) solveFrom(in Instance, cp *Checkpoint, sc *bbScratch, gv modes.Vector, warmFloor float64, start time.Time, cert *budgetCert) (modes.Vector, Stats) {
	f := &sc.frontier
	st := Stats{Solver: b.Name(), Exact: true}
	eps := in.budgetEps()
	st.UpperBoundInstr, _ = f.bound(in.BudgetW, eps, 0, 0, 0)
	gp := in.VectorPower(gv)
	gt := in.VectorInstr(gv)
	seedFeasible := gp <= in.BudgetW

	s := &sc.state
	v, best := s.v, s.best
	*s = bbState{
		power: in.Power, instr: in.Instr, budgetW: in.BudgetW, eps: eps, m: in.NumModes(),
		f: f, limit: b.NodeLimit, lexTies: b.LexTies, cp: cp, v: v, best: best,
		certOn: cert != nil, certHi: math.Inf(1),
	}
	s.bestT, s.bestP = -1, 0
	if seedFeasible {
		s.floor = gt
		if !b.LexTies {
			s.have = true
			s.best = append(s.best[:0], gv...)
			s.bestT, s.bestP = gt, gp
		}
	} else {
		s.floor = math.Inf(-1)
	}
	if warmFloor > s.floor {
		s.floor = warmFloor
	}
	n := in.NumCores()
	if cap(s.v) < n {
		s.v = make(modes.Vector, n)
	}
	s.v = s.v[:n]
	s.rec(0, 0, 0)

	st.Nodes, st.Pruned = s.nodes, s.pruned
	st.Exact = !s.aborted
	// Report only this solve's own checkpoint trips. Reading the shared
	// checkpoint's latched flag here would let a sibling sharing it (an
	// earlier cluster under Hier) that tripped the budget mark THIS
	// completed exact solve as aborted — inconsistent stats
	// (Exact && Aborted) and a lost memo entry.
	st.Aborted = s.cpHit
	st.Elapsed = time.Since(start)
	if cert != nil && !s.aborted {
		if s.have {
			cert.lo = max(cert.lo, s.bestP)
		}
		cert.hi = min(cert.hi, s.certHi)
		cert.ok = true
	}
	if !s.have {
		if seedFeasible {
			return gv, st // only possible under an aggressive NodeLimit
		}
		return in.deepestVector(), st
	}
	return s.best, st
}

// bbState is one DFS's state. It holds the instance's matrices, budget and
// mode count rather than the Instance itself, so no node copies the
// ~180-byte Instance.
type bbState struct {
	power, instr [][]float64
	budgetW, eps float64
	m            int
	f            *frontier
	limit        int64
	lexTies      bool
	cp           *Checkpoint

	v            modes.Vector
	best         modes.Vector
	bestT, bestP float64
	floor        float64 // pruning floor: max of seed, warm hint and incumbent
	have         bool
	nodes        int64
	pruned       int64
	aborted      bool
	// cpHit records that THIS solve's checkpoint charge tripped the budget —
	// as opposed to `aborted`, which also covers the solver's own NodeLimit
	// and a pre-latched checkpoint observed by a later Visit.
	cpHit  bool
	cpDebt int64
	// certOn collects budgetCert evidence: certHi is the least budget at
	// which some pruned or infeasible part of the tree could hold a vector
	// beating the floor.
	certOn bool
	certHi float64
}

func (s *bbState) rec(c int, usedP, usedI float64) {
	if s.aborted {
		return
	}
	s.nodes++
	if s.limit > 0 && s.nodes > s.limit {
		s.aborted = true
		return
	}
	if s.cp != nil {
		s.cpDebt++
		if s.cpDebt >= cpBatch {
			debt := s.cpDebt
			s.cpDebt = 0
			if s.cp.Visit(debt) {
				s.aborted = true
				s.cpHit = true
				return
			}
		}
	}
	if c == len(s.power) {
		p := sumAt(s.power, s.v)
		if p > s.budgetW {
			if s.certOn && p < s.certHi && sumAt(s.instr, s.v) > s.floor {
				s.certHi = p
			}
			return
		}
		t := sumAt(s.instr, s.v)
		if !s.have || better(t, p, s.bestT, s.bestP) {
			s.have = true
			s.best = resizeVector(s.best, len(s.v))
			copy(s.best, s.v)
			s.bestT, s.bestP = t, p
			if t > s.floor {
				s.floor = t
			}
		}
		return
	}
	ub, slope := s.f.bound(s.budgetW, s.eps, c, usedP, usedI)
	if math.IsInf(ub, -1) {
		s.pruned++
		if s.certOn {
			s.certHi = min(s.certHi, s.infeasibleHi(c, usedP, usedI))
		}
		return
	}
	// LexTies keeps throughput ties alive (strict <); the default prunes
	// them (≤) once an incumbent vector exists.
	keepTies := s.lexTies || !s.have
	if ub < s.floor || (!keepTies && ub == s.floor) {
		s.pruned++
		if s.certOn && slope > 0 { // a zero slope is a relaxation no budget lifts
			s.certHi = min(s.certHi, budgetToGain(s.budgetW, s.floor-ub, slope))
		}
		return
	}
	power, instr := s.power[c], s.instr[c]
	for mo := 0; mo < s.m; mo++ {
		s.v[c] = modes.Mode(mo)
		s.rec(c+1, usedP+power[mo], usedI+instr[mo])
	}
	s.v[c] = 0
}

// infeasibleHi is the certificate bound of a feasibility-pruned node. No
// completion fits below usedP + sufP[c], less eps, which dwarfs the
// rounding between that sum and a leaf's canonical one. Above it the
// relaxation starts at the base points' throughput and rises at most at the
// steepest remaining segment's ratio, so a subtree whose base does not beat
// the floor cannot until the budget has risen that much further.
func (s *bbState) infeasibleHi(c int, usedP, usedI float64) float64 {
	x := usedP + s.f.sufP[c] - s.eps
	base := usedI + s.f.sufI[c]
	base += 1e-9 * (1 + math.Abs(base))
	if base > s.floor {
		return x
	}
	for _, sg := range s.f.segs {
		if sg.core >= c {
			return budgetToGain(x, s.floor-base, sg.ratio)
		}
	}
	return math.Inf(1) // no segment left: the relaxation stays at base
}

// budgetToGain is the budget, from b, by which a relaxation rising at most
// slope per watt can first have gained need, shaved by the rounding of the
// quotient and the sum.
func budgetToGain(b, need, slope float64) float64 {
	return math.Nextafter(b+need/slope*(1-1e-12), math.Inf(-1))
}
