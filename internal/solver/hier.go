package solver

import (
	"time"

	"gpm/internal/modes"
)

// Hier is the two-level manager that makes thousand-core chips tractable:
// the chip budget is partitioned across fixed clusters of ClusterSize cores,
// each cluster is solved independently by the Inner solver within its share
// (one cluster after another, on the calling goroutine), and the aggregate
// slack the clusters leave unused — mode power is quantized, so shares are
// never spent exactly — is re-offered to each cluster in turn for
// RebalancePasses rounds.
//
// Budget split rule: each cluster's share is its demand under the chip-wide
// greedy allocation (the power the marginal-utility pass would spend inside
// the cluster), plus an even split of any remaining headroom. When Alpha is
// non-zero the shares are additionally smoothed across Solve calls —
// share = Alpha·previous + (1−Alpha)·demand — so a cluster whose workload
// ramps keeps part of its grant between explore intervals instead of being
// re-zeroed by one quiet sample (inter-interval rebalancing). The previous
// grants live in the Session driving the solver, so bare Solve calls (no
// session) are stateless: Alpha then behaves as 0. The decision cost is
// O(cores²·modes) for the demand pass plus numClusters independent
// ClusterSize-core solves.
type Hier struct {
	// ClusterSize is the number of cores per cluster (default 8).
	ClusterSize int
	// Inner solves each cluster within its share (default exact BB).
	Inner Solver
	// RebalancePasses is the number of slack-redistribution rounds after
	// the initial per-share solve (default 2).
	RebalancePasses int
	// Alpha in [0,1) smooths shares across calls when driven through a
	// Session; without one it is ignored (stateless solve).
	Alpha float64
}

// Name implements Solver.
func (*Hier) Name() string { return "hier" }

func (h *Hier) clusterSize() int {
	if h.ClusterSize <= 0 {
		return 8
	}
	return h.ClusterSize
}

func (h *Hier) inner() Solver {
	if h.Inner == nil {
		return &BB{}
	}
	return h.Inner
}

// hierState is a Session's cross-interval Hier memory: the Alpha-smoothed
// share grants, the previously returned vector (sliced into per-cluster warm
// hints), one child Session per cluster (scratch, warm floors and frontier
// reuse for the inner solver) with the link it shares with each, the walk
// scratch for the demand pass, and the output buffers. It replaces the
// mutex-guarded shares that used to live inside Hier itself, so the solver
// value is now immutable during Solve.
type hierState struct {
	shares []float64 // previous grants, when Alpha > 0
	prev   modes.Vector
	inner  []Session
	links  []clusterLink
	gs     walkScratch
	out    modes.Vector
	cur    []float64
	used   []float64
	// decision numbers the session's decisions; each link carries it, so a
	// child reuses its BB frontier across the solves of one decision (same
	// matrices, only the budget moves) and never across decisions.
	decision uint64
	// reuses counts this solve's rebalance offers answered by a cluster's
	// certificate; the session folds it into SessionStats.ClusterReuses.
	reuses int64
	// sharesStable reports that the last solve left the Alpha-smoothed share
	// state bit-identical to its value at entry (trivially true when Alpha is
	// 0 or a single cluster covers the chip). Together with a completed solve
	// it certifies that re-solving a bit-identical instance would reproduce
	// the same vector — the Session's ResultStable signal.
	sharesStable bool
}

// ensureInner opens a new decision over nc clusters of at most k cores and
// m modes. When the cluster count changes it replaces the child sessions.
// One cluster covering the chip is an ordinary session over the inner
// solver, memo and delta path included: it is solved once per decision, so
// no rebalance offer exists for a certificate to answer. Several clusters
// are one slab of sessions over one shared inner solver, without memos
// (certificates answer the rebalance offers a memo used to), each linked to
// the parent and with its buffers cut from shared slabs by sizeClusters.
// Child sessions carry no state across decisions that a result depends on,
// so replacing them changes no vector.
func (hs *hierState) ensureInner(h *Hier, nc, k, m int) {
	if len(hs.inner) != nc {
		for i := range hs.inner {
			hs.inner[i].Close()
		}
		hs.inner = make([]Session, nc)
		hs.links = nil
		inner := h.inner()
		for i := range hs.inner {
			hs.inner[i].init(inner)
		}
		if nc > 1 {
			hs.links = make([]clusterLink, nc)
			for i := range hs.inner {
				c := &hs.inner[i]
				c.memoOK, c.deltaOK = false, false
				c.link = &hs.links[i]
			}
			sizeClusters(hs.inner, k, m)
		}
	}
	hs.decision++
	for i := range hs.links {
		hs.links[i].decision = hs.decision
	}
}

// sizeClusters gives each cluster session its frontier, walk and DFS
// buffers for clusters of up to k cores and m modes, cut from one slab per
// element type, so no cluster grows a buffer on its first solve.
func sizeClusters(ses []Session, k, m int) {
	nc := len(ses)
	segs := k * (m - 1)
	steps := 0 // a short list lives in the walk's side heap
	if segs > insertionMax {
		steps = 2 * segs // every step, and the radix sort's buffer
	}
	floats := make([]float64, nc*(4*k+2))
	vecs := make([]modes.Mode, nc*3*k)
	pts := make([]hullPt, nc*2*m)
	sg := make([]segment, nc*segs)
	st := make([]step, nc*(steps+2*k))
	for i := range ses {
		f := &ses[i].bb.frontier
		f.baseP, f.baseI = carve(&floats, k), carve(&floats, k)
		f.sufP, f.sufI = carve(&floats, k+1), carve(&floats, k+1)
		f.segs = carve(&sg, segs)[:0]
		f.pts, f.hull = carve(&pts, m)[:0], carve(&pts, m)[:0]
		w := &ses[i].gs
		w.v = carve(&vecs, k)
		w.steps = carve(&st, steps)
		w.side, w.stash = carve(&st, k)[:0], carve(&st, k)[:0]
		d := &ses[i].bb.state
		d.v, d.best = carve(&vecs, k), carve(&vecs, k)
	}
}

// carve cuts the next n elements off *slab, capacity-limited so an append
// past n reallocates instead of writing into the next cut.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// Solve implements Solver.
func (h *Hier) Solve(in Instance) (modes.Vector, Stats) {
	return h.SolveBounded(in, nil)
}

// SolveBounded implements Bounded. The checkpoint is shared by the demand
// pass, every cluster solve (when Inner is Bounded), and the rebalance
// rounds; an exhausted checkpoint returns the best chip-feasible vector
// assembled so far, falling back to the greedy demand vector.
func (h *Hier) SolveBounded(in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	return h.solveWith(in, cp, nil, Hint{})
}

// solveWith is SolveBounded plus the session path: hs carries cross-interval
// state and reusable buffers, hint the previously actuated chip vector. With
// hs == nil the solve is stateless and allocates fresh buffers.
//
// Known divergence on an exotic config: when Inner is a *Deadline wrapper,
// the stateless path calls its Solve (arming the wrapper's own budgets),
// while child sessions unwrap it and thread the parent checkpoint instead —
// wrap Hier itself in WithDeadline to bound the whole decision uniformly.
func (h *Hier) solveWith(in Instance, cp *Checkpoint, hs *hierState, hint Hint) (modes.Vector, Stats) {
	start := time.Now()
	st := Stats{Solver: h.Name()}
	if hs != nil {
		// Paths that never touch hs.shares (Alpha == 0, single cluster, early
		// aborts) leave the cross-interval state trivially stable; the
		// Alpha > 0 share update below overwrites this with the real verdict.
		hs.sharesStable = true
	}
	n := in.NumCores()
	if n == 0 {
		st.Exact = true
		st.Elapsed = time.Since(start)
		return modes.Vector{}, st
	}
	k := h.clusterSize()
	if k >= n {
		// One cluster: delegate whole. The child session gives the inner
		// solver scratch reuse and the chip-level warm hint.
		var v modes.Vector
		var ist Stats
		if hs != nil {
			hs.ensureInner(h, 1, n, in.NumModes())
			v, ist = hs.inner[0].solveBounded(in, hint, cp)
		} else {
			v, ist = SolveBounded(h.inner(), in, cp)
		}
		ist.Solver = st.Solver
		ist.Elapsed = time.Since(start)
		return v, ist
	}

	nc := (n + k - 1) / k
	lo := func(i int) int { return i * k }
	hi := func(i int) int {
		h := (i + 1) * k
		if h > n {
			h = n
		}
		return h
	}
	sub := func(i int, shareW float64) Instance {
		s := Instance{
			Plan:    in.Plan,
			BudgetW: shareW,
			Power:   in.Power[lo(i):hi(i)],
			Instr:   in.Instr[lo(i):hi(i)],
		}
		if m := in.NumModes(); len(in.FlatPower) == n*m {
			s.FlatPower = in.FlatPower[lo(i)*m : hi(i)*m]
			s.FlatInstr = in.FlatInstr[lo(i)*m : hi(i)*m]
		}
		return s
	}

	// Global level: greedy demand shares plus an even headroom split.
	var gv modes.Vector
	var gnodes int64
	var gaborted bool
	if hs != nil && finiteInstance(in) {
		gv, gnodes, gaborted = greedyWalk(in, cp, &hs.gs, nil)
	} else {
		gv, gnodes, gaborted = greedySolve(in, cp, nil)
	}
	st.Nodes += gnodes
	if gaborted {
		// No time for the two-level decomposition: the (possibly partial)
		// greedy vector is feasible whenever anything is. Gate on the demand
		// pass's own checkpoint trip, not the shared latched flag, which an
		// external Abort may have set without this pass being short.
		st.Aborted = true
		st.Elapsed = time.Since(start)
		return gv, st
	}
	var shares []float64
	if hs != nil {
		hs.cur = resizeFloats(hs.cur, nc) // zeroed: shares accumulate with +=
		shares = hs.cur
	} else {
		shares = make([]float64, nc)
	}
	var demand float64
	for i := 0; i < nc; i++ {
		for c := lo(i); c < hi(i); c++ {
			shares[i] += in.Power[c][gv[c]]
		}
		demand += shares[i]
	}
	if headroom := in.BudgetW - demand; headroom > 0 {
		for i := range shares {
			shares[i] += headroom / float64(nc)
		}
	}

	// Inter-interval smoothing: blend with the previous grants, then scale
	// back under the budget if the blend overshoots it.
	if h.Alpha > 0 && hs != nil && len(hs.shares) == len(shares) {
		var sum float64
		for i := range shares {
			shares[i] = h.Alpha*hs.shares[i] + (1-h.Alpha)*shares[i]
			sum += shares[i]
		}
		if sum > in.BudgetW && sum > 0 {
			scale := in.BudgetW / sum
			for i := range shares {
				shares[i] *= scale
			}
		}
	}

	// Local level: independent per-cluster solves, in cluster order on the
	// calling goroutine. With a session, each cluster has its own child
	// session warmed by the matching slice of the previous chip vector.
	var out modes.Vector
	var used []float64
	var inner Solver
	if hs != nil {
		hs.out = resizeVector(hs.out, n)
		hs.used = resizeFloats(hs.used, nc)
		out, used = hs.out, hs.used
		hs.ensureInner(h, nc, k, in.NumModes())
	} else {
		out = make(modes.Vector, n)
		used = make([]float64, nc)
		inner = h.inner()
	}
	solveCluster := func(i int, s Instance) (modes.Vector, Stats) {
		if hs == nil {
			return SolveBounded(inner, s, cp)
		}
		var ch Hint
		if len(hs.prev) == n {
			ch.Vector = hs.prev[lo(i):hi(i)]
		}
		return hs.inner[i].solveBounded(s, ch, cp)
	}
	var spent float64
	for i := 0; i < nc; i++ {
		s := sub(i, shares[i])
		v, ist := solveCluster(i, s)
		st.Nodes += ist.Nodes
		copy(out[lo(i):hi(i)], v)
		used[i] = s.VectorPower(v)
		spent += used[i]
	}

	// Slack redistribution: clusters never spend their exact share, so the
	// aggregate remainder is re-offered to each cluster in turn. An offer
	// inside the certificate of the cluster's last solve is answered by the
	// vector it holds, which a re-solve would return bit for bit.
	passes := h.RebalancePasses
	if passes == 0 {
		passes = 2
	}
	eps := in.budgetEps()
	for pass := 0; pass < passes && !cp.Aborted(); pass++ {
		improved := false
		for i := 0; i < nc; i++ {
			if cp.Aborted() {
				break
			}
			slack := in.BudgetW - spent
			if slack <= eps {
				break
			}
			if hs != nil && hs.links[i].cert.holds(used[i]+slack) {
				hs.reuses++
				continue
			}
			s := sub(i, used[i]+slack)
			v, ist := solveCluster(i, s)
			st.Nodes += ist.Nodes
			p := s.VectorPower(v)
			if p != used[i] {
				improved = true
			}
			copy(out[lo(i):hi(i)], v)
			spent += p - used[i]
			used[i] = p
		}
		if !improved {
			break
		}
	}

	if h.Alpha > 0 && hs != nil {
		hs.sharesStable = floatsBitEqual(hs.shares, used)
		hs.shares = append(hs.shares[:0], used...)
	}

	// The per-cluster canonical sums can differ from the chip-level sum by
	// float dust; if that (or an infeasible cluster floor) pushed the chip
	// over budget, fall back to the greedy vector, which is feasible
	// whenever anything is.
	if in.VectorPower(out) > in.BudgetW {
		out = gv
	}
	if hs != nil {
		hs.prev = append(hs.prev[:0], out...)
	}
	st.Aborted = cp.Aborted()
	st.Elapsed = time.Since(start)
	return out, st
}
