package solver

import "gpm/internal/modes"

// The heap greedy below is the kernel greedyWalk replaced, kept as the
// reference the walk must reproduce: vector, node count and checkpoint
// visits (TestGreedyWalkMatchesHeapAndScan).

// greedyScratch is the heap kernel's reusable state.
type greedyScratch struct {
	v     modes.Vector
	heap  []gcand
	stash []gcand
}

// gcand is one core's pending single-step upgrade.
type gcand struct {
	ratio float64
	dp    float64
	core  int32
}

// candLess orders the candidate heap: higher ratio first, lower core on
// ties — exactly the candidate greedySolve's first-maximum scan selects.
func candLess(a, b gcand) bool {
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	return a.core < b.core
}

func (g *greedyScratch) push(c gcand) {
	g.heap = append(g.heap, c)
	i := len(g.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !candLess(g.heap[i], g.heap[p]) {
			break
		}
		g.heap[i], g.heap[p] = g.heap[p], g.heap[i]
		i = p
	}
}

func (g *greedyScratch) pop() gcand {
	h := g.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	g.heap = h
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		c := l
		if r := l + 1; r < len(h) && candLess(h[r], h[l]) {
			c = r
		}
		if !candLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// heapGreedy computes greedySolve's exact upgrade sequence in O(n·m·log n)
// instead of O(n²·m): one pending upgrade per core lives in a max-heap keyed
// (ratio desc, core asc) — the same candidate the scan's strict first-maximum
// rule selects each pass. Infeasible pops are stashed and reconsidered only
// when an applied upgrade *lowers* chip power (with non-negative deltas,
// infeasibility is monotone, so a stashed candidate can never fit again).
// Callers must pre-check finiteInstance: a NaN ratio has no heap order.
// The returned vector aliases g.v. Like greedySolve, the aborted result
// reports this solve's own checkpoint trips, not the shared latched flag.
func heapGreedy(in Instance, cp *Checkpoint, g *greedyScratch) (_ modes.Vector, nodes int64, aborted bool) {
	n := in.NumCores()
	if cap(g.v) < n {
		g.v = make(modes.Vector, n)
	}
	g.v = g.v[:n]
	v := g.v
	deep := modes.Mode(in.NumModes() - 1)
	for c := range v {
		v[c] = deep
	}
	power := in.VectorPower(v)
	if power > in.BudgetW {
		return v, nodes, false // even the floor exceeds the budget
	}
	g.heap = g.heap[:0]
	g.stash = g.stash[:0]
	for c := 0; c < n; c++ {
		if v[c] == 0 {
			continue
		}
		dp, ratio := upgradeDelta(in.Power[c], in.Instr[c], v[c])
		nodes++
		g.push(gcand{ratio: ratio, dp: dp, core: int32(c)})
	}
	if cp.Visit(nodes) {
		return v, nodes, true
	}
	for {
		var examined int64
		sel := gcand{core: -1}
		for len(g.heap) > 0 {
			if !(g.heap[0].ratio > -1.0) {
				break // below the scan's selection floor: nothing qualifies
			}
			top := g.pop()
			examined++
			if power+top.dp > in.BudgetW {
				g.stash = append(g.stash, top)
				continue
			}
			sel = top
			break
		}
		nodes += examined
		if cp.Visit(examined) {
			return v, nodes, true
		}
		if sel.core < 0 {
			return v, nodes, false
		}
		c := int(sel.core)
		v[c]--
		power += sel.dp
		if sel.dp < 0 {
			// Chip power went down: stashed upgrades may fit again.
			for _, st := range g.stash {
				g.push(st)
			}
			g.stash = g.stash[:0]
		}
		if v[c] > 0 {
			dp, ratio := upgradeDelta(in.Power[c], in.Instr[c], v[c])
			nodes++
			g.push(gcand{ratio: ratio, dp: dp, core: int32(c)})
		}
	}
}
