package solver

import (
	"math"
	"time"

	"gpm/internal/modes"
)

// Hint carries the previous interval's decision into a warm-started solve:
// the mode vector that was actually actuated, and (optionally, for
// observability) the objective it scored when it was chosen. Sessions
// re-validate the hint against the *current* instance — the vector is only
// used when it is shape-compatible and feasible under the current matrices
// and budget — so a stale or truncated hint degrades to a cold solve, never
// to a wrong answer.
type Hint struct {
	// Vector is the previously actuated mode vector (may be nil: cold).
	Vector modes.Vector
	// Instr is the objective the vector scored when actuated, under the
	// matrices of its own interval. Informational only: the session
	// re-scores the vector on the current instance before using it.
	Instr float64
}

// SessionStats are a Session's cumulative warm-start counters.
type SessionStats struct {
	// Solves counts Solve calls.
	Solves int64
	// MemoHits counts solves answered entirely from the instance memo
	// (telemetry bit-identical to a recently solved interval).
	MemoHits int64
	// WarmFloored counts solves that applied a feasible warm hint as an
	// extra branch-and-bound pruning floor.
	WarmFloored int64
	// HintReturns counts aborted solves whose returned vector was the
	// (strictly better) warm hint rather than the solver's own incumbent.
	HintReturns int64
	// DirtyCores accumulates the size of the generation-handshake dirty set
	// over solves that reached the delta path's dirty scan.
	DirtyCores int64
	// DeltaSolves counts solves that attempted the incremental re-solve
	// (K dirty cores patched against the residual budget); DeltaCertified
	// counts the attempts whose patched vector passed the uniqueness
	// certificate and was returned as the proven optimum, DeltaFallbacks the
	// attempts that demoted the patch to a warm hint and ran the full solve.
	DeltaSolves    int64
	DeltaCertified int64
	DeltaFallbacks int64
	// Nodes and Pruned accumulate the underlying solver's search-node and
	// pruned-subtree counts across solves (memo hits contribute zero), so
	// Nodes here vs a cold baseline is the "nodes saved" measure and
	// Pruned/Nodes the incumbent-prune rate.
	Nodes  int64
	Pruned int64
	// ClusterReuses counts Hier rebalance offers a cluster answered without
	// solving: the offered budget lay inside the certificate of the
	// cluster's last solve, so that solve's vector is the answer.
	ClusterReuses int64
}

// Session owns the cross-interval state that makes consecutive decisions
// cheap: reusable sort/scratch buffers for every solver, a small memo of
// recently solved instances, Hier's cluster shares and per-cluster inner
// sessions, and the warm-start plumbing that turns the previous decision
// into a BB pruning floor.
//
// Warm-starting is a pure accelerator: for any hint, Solve returns the
// bit-identical vector a cold Solve of the same solver would return on the
// same instance (pinned by TestWarmVsColdBitIdentical). The one exception is
// deliberate and matches the anytime contract: when a deadline/node budget
// aborts the solve mid-search, the session returns the hint vector instead
// of the solver's incumbent iff the hint is feasible on the current instance
// and strictly better — an aborted cold solve has no bit-identity to
// preserve, only a "best feasible incumbent" obligation, which the hint
// satisfies.
//
// The returned vector aliases session-owned buffers and is valid until the
// next Solve call; callers that retain it must copy (core.Manager.sanitize
// already does).
//
// A Session is single-goroutine, like the engine loop that owns it. The
// underlying Solver itself stays stateless and safe for concurrent use by
// other callers.
type Session struct {
	solver     Solver
	base       Solver // solver with any Deadline wrappers unwrapped
	wall       time.Duration
	nodeBudget int64
	cp         *Checkpoint

	// memo is a 2-entry ring of recently solved instances, so two
	// alternating instances both hit. Entries hold session-owned copies of
	// the matrices: callers reuse their matrix backing arrays in place
	// between intervals, so stored references would always compare equal.
	// Hier's cluster sessions run without it: their rebalance offers are
	// answered by certificates instead (budgetCert).
	memoOK   bool
	memo     [2]memoEntry
	memoNext int

	// deltaOK enables the incremental re-solve path: exact unbounded BB only
	// (no NodeLimit, no session deadline), since the uniqueness certificate
	// proves what a *completed* exact solve would return.
	deltaOK bool
	// deltaVec/deltaDirty are the delta path's reusable patch buffers.
	deltaVec   modes.Vector
	deltaDirty []int
	// lastStable reports that re-solving the last instance (bit-identical
	// matrices, budget and hint) would return the bit-identical vector and
	// leave the session's result-affecting state unchanged: a memo hit or
	// certified delta trivially, a completed solve otherwise — except a
	// share-smoothing Hier, which additionally needs its share fixpoint
	// (hierState.sharesStable).
	lastStable bool

	gs   walkScratch
	bb   bbScratch
	hier *hierState
	// link is set on a Hier cluster's session: the decision state its parent
	// shares with it, and where its solves leave their certificates.
	link *clusterLink

	stats  SessionStats
	closed bool
}

type memoEntry struct {
	ok           bool
	n, m         int
	budget       float64
	power, instr []float64 // row-major n×m copies
	vec          modes.Vector
	stats        Stats

	// Generation handshake snapshot (Instance.GenID != 0 at memoPut time):
	// genID/gen identify the matrix backing and its generation, gens the
	// per-core stamps. A tracked hit is then an O(1) generation compare
	// instead of the O(n·m) flat compare, and a generation mismatch yields
	// the dirty-core set in O(n).
	genID, gen uint64
	gens       []uint64

	// Incremental certificate state (deltaOK sessions): per-core Instr
	// argmax, its margin over the runner-up (+Inf for single-mode plans),
	// the row's max |Instr| (for the float-drift guard), and the count of
	// cores where vec disagrees with amax. certOK marks the state consistent
	// with vec/power/instr — an uncertified patch attempt leaves the arrays
	// half-updated and clears it.
	certOK   bool
	amax     modes.Vector
	margin   []float64
	rowMax   []float64
	mismatch int
}

// clusterLink is the state a parent Hier shares with one cluster's session.
type clusterLink struct {
	// decision is the parent's decision number and built the decision whose
	// matrices the cluster's BB frontier was built from. Every solve of one
	// decision sees bit-identical matrices (the initial solve and the
	// rebalance offers differ only in budget), and the frontier depends on
	// the matrices alone, so it is built once per decision.
	decision, built uint64
	// cert is the certificate of the cluster's last solve (see budgetCert).
	cert budgetCert
}

// budgetCert is a budget interval [lo, hi) on which a completed solve's
// vector provably stays the answer to the same matrices: for every budget
// in it, a cold BB (of the session's tie mode) returns the same vector.
//
//   - lo is the answer's own power, and the chip power after each upgrade
//     the greedy seed accepted: below it, the answer or the seed changes.
//   - hi is the least of: the power after each upgrade the seed rejected;
//     the power of each infeasible leaf whose throughput beat the pruning
//     floor; for each bound-pruned node, the budget at which its
//     relaxation, rising at most at the water-fill's current slope, could
//     reach the floor: budget + (floor − ub) ÷ slope; and for each
//     feasibility-pruned node, its minimum completion power less the
//     pruning slack, plus the same climb from its base points' throughput
//     when that does not beat the floor (bbState.infeasibleHi).
//
// On [lo, hi) the seed is the same vector, the answer stays feasible, and no
// vector of strictly higher throughput fits, so the set of optima is the
// same; BB returns a function of those two (the seed when it is optimal,
// the lexicographically first optimum otherwise), so it returns the same
// vector. Only a solve that ran to completion, seed included, certifies.
type budgetCert struct {
	lo, hi float64
	ok     bool
}

// holds reports that the certificate covers budget b.
func (c budgetCert) holds(b float64) bool { return c.ok && c.lo <= b && b < c.hi }

// NewSession builds a stateful solving session over s. Deadline wrappers are
// unwrapped and their wall/node budgets applied per Solve (tightest layer
// wins), exactly like Deadline.Solve. The memo is enabled for stateless
// solvers only: BB, Exhaustive, Greedy, and Hier with Alpha == 0 — a
// share-smoothing Hier must re-solve so its share state keeps evolving.
func NewSession(s Solver) *Session {
	ses := &Session{}
	ses.init(s)
	return ses
}

// init sets up a zero Session over s (see NewSession).
func (ses *Session) init(s Solver) {
	ses.solver = s
	base := s
	for {
		d, ok := base.(*Deadline)
		if !ok {
			break
		}
		if d.Wall > 0 && (ses.wall == 0 || d.Wall < ses.wall) {
			ses.wall = d.Wall
		}
		if d.Nodes > 0 && (ses.nodeBudget == 0 || d.Nodes < ses.nodeBudget) {
			ses.nodeBudget = d.Nodes
		}
		base = d.Inner
	}
	ses.base = base
	switch b := base.(type) {
	case *Hier:
		ses.hier = &hierState{}
		ses.memoOK = b.Alpha == 0
	case *BB:
		ses.memoOK = true
		ses.deltaOK = b.NodeLimit == 0 && ses.wall == 0 && ses.nodeBudget == 0
	case Exhaustive, Greedy:
		ses.memoOK = true
	}
}

// Stats returns the session's cumulative counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Invalidate drops the session's instance memo — and with it the delta
// re-solve state — forcing the next solve down the full path. The engine
// loop calls it on decision discontinuities (budget steps, core death,
// emergency throttles, supervisor degradation): cached entries stay *sound*
// across those events (they only ever answer bit-identical instances), but
// dropping them keeps the delta path from patching across a regime change
// the caller has declared meaningless to bridge.
func (s *Session) Invalidate() {
	for i := range s.memo {
		s.memo[i].ok = false
		s.memo[i].certOK = false
	}
	s.lastStable = false
}

// ResultStable reports that immediately re-solving the last Solve's instance
// (bit-identical matrices, budget and hint) would return the bit-identical
// vector and leave the session's result-affecting state unchanged. Callers
// with their own change detection (the fleet arbiter) use it to skip solves
// entirely at a fixpoint. False before the first Solve and after Invalidate.
func (s *Session) ResultStable() bool { return s.lastStable }

// Close releases the session's buffers and any per-cluster child sessions.
// The session must not be used after Close. Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.hier != nil {
		for i := range s.hier.inner {
			s.hier.inner[i].Close()
		}
		s.hier = nil
	}
	for i := range s.memo {
		s.memo[i] = memoEntry{}
	}
	s.gs = walkScratch{}
	s.bb = bbScratch{}
}

// Solve runs one warm-started solve. Semantics match the wrapped solver's
// Solve (including Deadline budgets when the session wraps one), with the
// hint applied as described on Session.
func (s *Session) Solve(in Instance, h Hint) (modes.Vector, Stats) {
	if s.closed {
		panic("solver: Session used after Close")
	}
	var cp *Checkpoint
	if s.wall > 0 || s.nodeBudget > 0 {
		if s.cp == nil {
			s.cp = &Checkpoint{}
		}
		s.cp.reset(s.wall, s.nodeBudget)
		cp = s.cp
	}
	v, st := s.solveBounded(in, h, cp)
	if cp.Aborted() {
		st.Aborted = true
		st.Exact = false
	}
	return v, st
}

// solveBounded is Solve with an externally owned checkpoint; Hier's
// per-cluster child sessions are driven through it so cluster solves charge
// nodes to their parent's budget.
func (s *Session) solveBounded(in Instance, h Hint, cp *Checkpoint) (modes.Vector, Stats) {
	s.stats.Solves++
	s.lastStable = false
	if s.memoOK {
		if v, st, ok := s.memoGet(in); ok {
			s.stats.MemoHits++
			s.lastStable = true
			return v, st
		}
		// Incremental re-solve: with a tracked instance whose generation
		// moved, patch the memoized optimum on the dirty cores and certify.
		// Only without an external checkpoint — the certificate proves what a
		// *completed* solve returns, so anytime budgets must bypass it.
		if s.deltaOK && cp == nil {
			if v, st, ok := s.tryDelta(in, &h); ok {
				s.lastStable = true
				return v, st
			}
		}
	}
	warm := usableHint(in, h)
	var v modes.Vector
	var st Stats
	switch b := s.base.(type) {
	case *BB:
		v, st = s.solveBB(b, in, h, warm, cp)
	case *Hier:
		v, st = b.solveWith(in, cp, s.hier, h)
		s.stats.ClusterReuses += s.hier.reuses
		s.hier.reuses = 0
	case Greedy:
		v, st = s.solveGreedy(b, in, cp)
	default:
		v, st = SolveBounded(s.base, in, cp)
	}
	// An aborted solve's incumbent can be weaker than the hint (the DFS was
	// cut before revisiting it); the hint is a feasible vector the previous
	// interval actually ran, so it always qualifies as the anytime answer.
	// Strictly-better only: a completed solve is never overridden.
	if st.Aborted && warm {
		if hp := in.VectorPower(h.Vector); hp <= in.BudgetW {
			ht := in.VectorInstr(h.Vector)
			rp := in.VectorPower(v)
			if rp > in.BudgetW || better(ht, hp, in.VectorInstr(v), rp) {
				v = h.Vector
				s.stats.HintReturns++
			}
		}
	}
	s.stats.Nodes += st.Nodes
	s.stats.Pruned += st.Pruned
	if s.memoOK && !st.Aborted {
		s.memoPut(in, v, st)
	}
	s.lastStable = !st.Aborted
	if hs := s.hier; hs != nil && !hs.sharesStable {
		s.lastStable = false
	}
	return v, st
}

// solveBB is the warm BB path: scratch-built frontier, sorted-walk greedy
// seed, and the hint as an extra pruning floor. Non-finite instances take
// the cold path — the fast sorts and the walk assume totally ordered keys.
// A Hier cluster's solve also leaves its budget certificate in its link.
func (s *Session) solveBB(b *BB, in Instance, h Hint, warm bool, cp *Checkpoint) (modes.Vector, Stats) {
	start := time.Now()
	l := s.link
	if l != nil {
		l.cert.ok = false
	}
	if in.NumCores() == 0 || !finiteInstance(in) {
		return b.SolveBounded(in, cp)
	}
	if l == nil || l.built != l.decision {
		s.bb.frontier.build(in, true)
		if l != nil {
			l.built = l.decision
		}
	}
	var cert *budgetCert
	if l != nil {
		cert = &l.cert
		*cert = budgetCert{lo: math.Inf(-1), hi: math.Inf(1)}
	}
	gv, _, seedAborted := greedyWalk(in, cp, &s.gs, cert)
	warmFloor := math.Inf(-1)
	if warm {
		if hp := in.VectorPower(h.Vector); hp <= in.BudgetW {
			warmFloor = in.VectorInstr(h.Vector)
			s.stats.WarmFloored++
		}
	}
	if seedAborted {
		cert = nil
	}
	return b.solveFrom(in, cp, &s.bb, gv, warmFloor, start, cert)
}

// solveGreedy swaps the O(n²·m) scan for the O(n·m·log n) sorted walk.
func (s *Session) solveGreedy(g Greedy, in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	if !finiteInstance(in) {
		return g.SolveBounded(in, cp)
	}
	start := time.Now()
	v, nodes, aborted := greedyWalk(in, cp, &s.gs, nil)
	st := Stats{Solver: g.Name(), Nodes: nodes, Elapsed: time.Since(start)}
	st.Aborted = aborted
	return v, st
}

// usableHint reports that the hint vector is shape-compatible with the
// instance (right width, every mode in range). Feasibility is checked
// separately at each use site, against the current matrices.
func usableHint(in Instance, h Hint) bool {
	n := in.NumCores()
	if n == 0 || len(h.Vector) != n {
		return false
	}
	m := in.NumModes()
	for _, mo := range h.Vector {
		if mo < 0 || int(mo) >= m {
			return false
		}
	}
	return true
}

// finiteInstance reports that the budget and every matrix entry are finite.
// The warm paths require it: NaNs have no defined order under the fast
// sorts and the sorted walk, so non-finite instances fall back to the cold
// kernels (which the memo also never caches: NaN compares unequal).
func finiteInstance(in Instance) bool {
	if !finite(in.BudgetW) {
		return false
	}
	for c := range in.Power {
		for _, p := range in.Power[c] {
			if !finite(p) {
				return false
			}
		}
		for _, q := range in.Instr[c] {
			if !finite(q) {
				return false
			}
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// tracked reports that the instance carries a usable generation handshake.
func tracked(in Instance, n int) bool {
	return in.GenID != 0 && len(in.Gens) == n
}

// memoGet returns the cached result of a bitwise-identical instance. Stats
// are returned with Nodes/Pruned zeroed — a hit does no search — so the
// "nodes saved" accounting stays honest. Tracked instances (generation
// handshake present, same backing as the entry) are answered by an O(1)
// generation compare; everything else falls back to the flat compare.
func (s *Session) memoGet(in Instance) (modes.Vector, Stats, bool) {
	n, m := in.NumCores(), in.NumModes()
	isTracked := tracked(in, n)
	for i := range s.memo {
		e := &s.memo[i]
		if !e.ok || e.n != n || e.m != m || e.budget != in.BudgetW {
			continue
		}
		if isTracked && e.genID == in.GenID {
			// Same backing: equal generation ⇔ bit-identical matrices (the
			// handshake contract — MatricesInto bumps the generation on any
			// row change and nothing else mutates the backing).
			if e.gen != in.Gen {
				continue
			}
		} else if !matricesEqual(in, e.power, e.instr, m) {
			continue
		}
		st := e.stats
		st.Nodes, st.Pruned = 0, 0
		st.Elapsed = 0
		return e.vec, st, true
	}
	return nil, Stats{}, false
}

// memoPut stores a completed (non-aborted) solve. Aborted results are never
// cached: node-budget aborts must stay deterministic per solve, and a
// deadline abort is not a function of the instance at all.
func (s *Session) memoPut(in Instance, v modes.Vector, st Stats) {
	n, m := in.NumCores(), in.NumModes()
	e := &s.memo[s.memoNext]
	s.memoNext = (s.memoNext + 1) % len(s.memo)
	e.ok = true
	e.n, e.m, e.budget = n, m, in.BudgetW
	e.power = copyMatrix(e.power[:0], in.Power, in.FlatPower, n*m)
	e.instr = copyMatrix(e.instr[:0], in.Instr, in.FlatInstr, n*m)
	e.vec = append(e.vec[:0], v...)
	e.stats = st
	e.genID, e.gen = 0, 0
	e.certOK = false
	if tracked(in, n) {
		e.genID, e.gen = in.GenID, in.Gen
		e.gens = append(e.gens[:0], in.Gens...)
		if s.deltaOK && st.Exact {
			s.buildCert(e)
		}
	}
}

// buildCert computes the entry's per-core argmax/margin state from its
// row-major matrix copies: the λ=0 water level of the uniqueness certificate
// (see tryDelta). O(n·m), paid once per full solve.
func (s *Session) buildCert(e *memoEntry) {
	n, m := e.n, e.m
	e.amax = resizeVector(e.amax, n)
	e.margin = resizeFloats(e.margin, n)
	e.rowMax = resizeFloats(e.rowMax, n)
	e.mismatch = 0
	for c := 0; c < n; c++ {
		row := e.instr[c*m : (c+1)*m]
		certRow(row, c, e)
		if e.vec[c] != e.amax[c] {
			e.mismatch++
		}
	}
	e.certOK = true
}

// certRow fills core c's certificate state from its Instr row: the strict
// argmax (first index attaining the max), the margin over the runner-up
// (+Inf for single-mode plans, 0 on an exact tie — which voids the
// certificate via the margin guard), and the row's max |Instr| for the
// float-drift guard.
func certRow(row []float64, c int, e *memoEntry) {
	best, second := row[0], math.Inf(-1)
	bm := 0
	abs := math.Abs(row[0])
	for j := 1; j < len(row); j++ {
		x := row[j]
		if a := math.Abs(x); a > abs {
			abs = a
		}
		if x > best {
			second = best
			best, bm = x, j
		} else if x > second {
			second = x
		}
	}
	e.amax[c] = modes.Mode(bm)
	if len(row) == 1 {
		e.margin[c] = math.Inf(1)
	} else {
		e.margin[c] = best - second
	}
	e.rowMax[c] = abs
}

// maxDeltaDirty bounds the dirty-core count the incremental path will patch;
// beyond it a full warm solve is cheaper than certifying. deltaComboCap
// bounds the residual-budget enumeration (modes^dirty).
const (
	maxDeltaDirty = 4
	deltaComboCap = 4096
)

// tryDelta is the incremental re-solve: when a tracked instance differs from
// a memoized optimum on K ≤ maxDeltaDirty cores at the same budget, re-solve
// just the dirty cores against the residual budget (clean cores keep their
// previous modes) and certify the patched vector as the full instance's
// unique optimum:
//
//	For every core c let amax[c] = argmax_j Instr[c][j] with strict margin
//	margin[c] > 0. If patch[c] == amax[c] for all c and the patch is
//	feasible (canonical VectorPower ≤ BudgetW), then for any other vector y
//	(feasible or not) T(y) ≤ T(patch) − min margin in real arithmetic; when
//	min margin also exceeds the accumulated float-summation drift bound
//	(guard below), T_float(y) < T_float(patch) strictly, so the patch is the
//	UNIQUE throughput optimum and every exact solver — either tie mode —
//	returns exactly it.
//
// A certified patch is returned as the proven cold answer and the memo entry
// is advanced in place (vec, dirty rows, generations) — steady-state cost
// O(n + K·m) with zero allocations. An uncertified patch demotes to a warm
// hint for the full solve (a pruning-floor-only hint can never change the
// result), and the half-updated certificate state is dropped.
func (s *Session) tryDelta(in Instance, h *Hint) (modes.Vector, Stats, bool) {
	n, m := in.NumCores(), in.NumModes()
	if !tracked(in, n) || n == 0 {
		return nil, Stats{}, false
	}
	// Most recent tracked entry for this backing at this exact budget.
	var e *memoEntry
	for i := range s.memo {
		c := &s.memo[i]
		if c.ok && c.certOK && c.genID == in.GenID && c.n == n && c.m == m &&
			c.budget == in.BudgetW && c.stats.Exact && (e == nil || c.gen > e.gen) {
			e = c
		}
	}
	if e == nil {
		return nil, Stats{}, false
	}
	dirty := s.deltaDirty[:0]
	total := 0
	for c := 0; c < n; c++ {
		if e.gens[c] != in.Gens[c] {
			total++
			if total <= maxDeltaDirty {
				dirty = append(dirty, c)
			}
		}
	}
	s.deltaDirty = dirty
	s.stats.DirtyCores += int64(total)
	if total == 0 || total > maxDeltaDirty {
		return nil, Stats{}, false
	}
	combos := 1
	for range dirty {
		combos *= m
		if combos > deltaComboCap {
			return nil, Stats{}, false
		}
	}
	s.stats.DeltaSolves++

	// Patch = previous optimum with the dirty cores re-solved against the
	// residual budget, enumerated in lexicographic order under the kernel's
	// strict improvement rule (per-subset sums; the certificate re-scores the
	// final vector canonically, so this ordering only shapes the fallback
	// hint, never a certified result).
	s.deltaVec = resizeVector(s.deltaVec, n)
	patch := s.deltaVec
	copy(patch, e.vec)
	// residual = budget − Σ clean cores' power at their kept modes.
	residual := in.BudgetW
	for c := 0; c < n; c++ {
		residual -= in.Power[c][patch[c]]
	}
	for _, c := range dirty {
		residual += in.Power[c][patch[c]]
	}
	bestT, bestP := math.Inf(-1), math.Inf(1)
	found := false
	for ci := 0; ci < combos; ci++ {
		var p, t float64
		rem := ci
		for k := len(dirty) - 1; k >= 0; k-- {
			mo := rem % m
			rem /= m
			c := dirty[k]
			p += in.Power[c][mo]
			t += in.Instr[c][mo]
		}
		if p > residual {
			continue
		}
		if !found || better(t, p, bestT, bestP) {
			found = true
			bestT, bestP = t, p
			rem = ci
			for k := len(dirty) - 1; k >= 0; k-- {
				patch[dirty[k]] = modes.Mode(rem % m)
				rem /= m
			}
		}
	}

	// Advance the certificate state over the dirty rows (margins, argmax,
	// row maxima, mismatch count) — O(K·m).
	for _, c := range dirty {
		if e.vec[c] != e.amax[c] {
			e.mismatch--
		}
		certRow(in.Instr[c], c, e)
		if found && patch[c] == e.amax[c] {
			// patched to the water level: no mismatch
		} else {
			e.mismatch++
		}
	}

	certified := found && e.mismatch == 0
	var pp float64
	if certified || found {
		pp = in.VectorPower(patch)
	}
	if certified && pp > in.BudgetW {
		certified = false
	}
	if certified {
		// Margin guard: min strict margin must exceed the worst-case float
		// summation drift between any two canonical-order sums, so the
		// real-arithmetic strict ordering survives rounding. n·ε·Σ|rowMax|
		// bounds the drift; 1e-9 is ~6 decimal orders more conservative.
		minMargin, absSum := math.Inf(1), 0.0
		for c := 0; c < n; c++ {
			if e.margin[c] < minMargin {
				minMargin = e.margin[c]
			}
			absSum += e.rowMax[c]
		}
		if !(minMargin > 1e-9*(1+absSum)) {
			certified = false
		}
	}

	if certified {
		// Commit: the entry now memoizes the patched instance at its new
		// generation. Copy the dirty rows; everything else is unchanged.
		for _, c := range dirty {
			copy(e.power[c*m:(c+1)*m], in.Power[c])
			copy(e.instr[c*m:(c+1)*m], in.Instr[c])
			e.gens[c] = in.Gens[c]
		}
		e.gen = in.Gen
		copy(e.vec, patch)
		s.stats.DeltaCertified++
		st := e.stats
		st.Nodes, st.Pruned = 0, 0
		st.Elapsed = 0
		return e.vec, st, true
	}

	// Fallback: certificate void. The entry's certificate arrays no longer
	// match its rows — drop them; the following full solve re-memoizes.
	e.certOK = false
	s.stats.DeltaFallbacks++
	if found && pp <= in.BudgetW {
		// The feasible patch is a (often excellent) warm hint; use it when it
		// beats the caller's hint. Hints only tighten the pruning floor, so
		// this cannot change the full solve's result.
		pt := in.VectorInstr(patch)
		use := true
		if usableHint(in, *h) {
			if hp := in.VectorPower(h.Vector); hp <= in.BudgetW {
				use = better(pt, pp, in.VectorInstr(h.Vector), hp)
			}
		}
		if use {
			h.Vector = patch
			h.Instr = pt
		}
	}
	return nil, Stats{}, false
}

// matricesEqual compares the instance's matrices against a stored row-major
// copy, using the caller-provided contiguous aliases when present.
func matricesEqual(in Instance, power, instr []float64, m int) bool {
	if fp, fi := in.FlatPower, in.FlatInstr; len(fp) == len(power) && len(fi) == len(instr) && len(fp) > 0 {
		for i, p := range fp {
			if power[i] != p {
				return false
			}
		}
		for i, q := range fi {
			if instr[i] != q {
				return false
			}
		}
		return true
	}
	for c := range in.Power {
		base := c * m
		for j, p := range in.Power[c] {
			if power[base+j] != p {
				return false
			}
		}
		for j, q := range in.Instr[c] {
			if instr[base+j] != q {
				return false
			}
		}
	}
	return true
}

func copyMatrix(dst []float64, rows [][]float64, flat []float64, nm int) []float64 {
	if cap(dst) < nm {
		dst = make([]float64, 0, nm)
	}
	if len(flat) == nm {
		return append(dst, flat...)
	}
	for _, row := range rows {
		dst = append(dst, row...)
	}
	return dst
}

// resizeFloats returns a zeroed slice of length n, reusing s's backing when
// it is large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeVector(s modes.Vector, n int) modes.Vector {
	if cap(s) < n {
		return make(modes.Vector, n)
	}
	return s[:n]
}

// floatsBitEqual reports element-wise bit equality (NaN-hostile: any NaN
// compares unequal, which is the conservative answer for stability checks).
func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
