package solver

import (
	"math"

	"gpm/internal/modes"
)

// step is one core's single-step upgrade from mode lvl to lvl−1, scored by
// upgradeDelta. key is the step's ratio under ratioKey, so ascending keys
// are descending ratios. Its power delta is re-read from the rows when the
// walk reaches it (see stepDP), which keeps the sorted records small.
type step struct {
	key  uint64
	core int32
	lvl  int32
}

// stepDP is the step's power delta, computed exactly as upgradeDelta does.
// It takes the power rows, not the Instance, so the inlined call copies no
// Instance.
func stepDP(power [][]float64, s step) float64 {
	row := power[s.core]
	return row[s.lvl-1] - row[s.lvl]
}

// before is the walk's total order on steps: ratio descending (key
// ascending), then core ascending, then the core's deeper step first — the
// order one stable sort by key gives steps emitted core by core, each
// core's chain from its deepest mode up. Restricted to one step per core
// (the only way steps ever compete), it is the heap greedy's candidate order
// and the scan's first-maximum rule.
func (a step) before(b step) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.core != b.core {
		return a.core < b.core
	}
	return a.lvl > b.lvl
}

// ratioKey maps a ratio to an unsigned key whose ascending order is the
// ratio's descending order. −0 is folded into +0 first: the ratio
// comparisons treat them as equal, so their keys must be equal too for the
// stable order to agree. A NaN ratio compares false with every bound, so the
// greedy never selects it: its key sorts past every other, at or past
// selectFloorKey, where the walk stops.
func ratioKey(r float64) uint64 {
	if r != r {
		return math.MaxUint64
	}
	b := math.Float64bits(r + 0)
	if b>>63 != 0 {
		return b // negative: a larger magnitude is a larger key
	}
	return ^b &^ (1 << 63) // non-negative: a larger ratio is a smaller key
}

// selectFloorKey is ratioKey(−1): the greedy only selects ratios above −1,
// so the walk stops at the first candidate whose key is not below it.
var selectFloorKey = ratioKey(-1)

// insertionMax is the longest list ordered without a bulk sort: a walk over
// at most this many steps keeps them all in its side heap, and the segment
// and equal-prefix step runs this short are insertion-sorted. A cluster's
// lists (8 cores × 2) stay under it, a chip-wide demand pass (1024 × 2) does
// not.
const insertionMax = 48

// walkScratch is the sorted-walk greedy's reusable state.
type walkScratch struct {
	v modes.Vector
	// steps holds every upgrade step of a long list, and in its upper half
	// the radix sort's ping-pong buffer.
	steps []step
	// side is a min-heap (by before) of available steps the walk has
	// already passed; stash holds passed steps that did not fit.
	side  []step
	stash []step
}

// greedyWalk is the greedy kernel: starting from the all-deepest vector, it
// repeatedly applies the single-core, single-step upgrade with the highest
// ΔBIPS/ΔPower ratio (upgradeDelta) that still fits the budget, ties to the
// lowest core, and stops when no upgrade above ratio −1 fits. It sorts every
// upgrade step once and walks the sorted list. A step is available when its
// core sits at the step's source mode; the walk's next candidate is the
// first available step ahead of its position, or the head of the side heap
// when that comes first. A step the walk has passed enters the side heap
// when it becomes available later (a successor whose ratio beats its
// predecessor's, on a non-concave row) or when stashed steps are re-offered.
//
// Non-finite rows and budgets need two rules, and nothing else. A NaN ratio
// is never selected (ratioKey). Stashed steps are re-offered whenever an
// accepted step's power delta is not ≥ 0: a negative delta lowers chip
// power, and a NaN one makes it NaN, after which every step fits. With
// deltas ≥ 0, chip power never falls and infeasibility is monotone, so a
// stashed step never fits again otherwise. TestGreedyWalkNonFinite pins the
// walk to the O(n²·m) scan that defines the sequence, on instances poisoned
// with NaN, ±Inf, 0 and −1.
//
// It also reproduces the heap greedy it replaced step for step: the same
// vector, the same node count (n for the first candidates, one per examined
// candidate, one per successor) and the same Checkpoint.Visit sequence, so
// node-budget aborts land where they did. The returned vector aliases w.v.
// aborted reports this solve's own checkpoint trips, not the shared
// checkpoint's latched flag, which another goroutine may have set after this
// solve completed; an aborted walk returns the vector built so far, which
// is feasible by construction.
//
// When cert is non-nil the walk narrows it to the budgets under which every
// feasibility test it made would come out the same — accepted upgrades set
// lo, rejected ones hi — so the walk's vector holds on all of [lo, hi).
func greedyWalk(in *Instance, cp *Checkpoint, w *walkScratch, cert *budgetCert) (_ modes.Vector, nodes int64, aborted bool) {
	n, m := in.NumCores(), in.NumModes()
	w.v = resizeVector(w.v, n)
	v := w.v
	deep := modes.Mode(m - 1)
	for c := range v {
		v[c] = deep
	}
	power := in.VectorPower(v)
	if power > in.BudgetW {
		if cert != nil {
			cert.hi = min(cert.hi, power)
		}
		return v, nodes, false // even the floor exceeds the budget
	}
	if cert != nil {
		cert.lo = max(cert.lo, power)
	}
	if cap(w.side) < n {
		// Each holds at most one step per core.
		w.side, w.stash = make([]step, 0, n), make([]step, 0, n)
	}
	w.side, w.stash = w.side[:0], w.stash[:0]
	var steps []step
	if k := n * int(deep); k > insertionMax {
		if cap(w.steps) < 2*k {
			w.steps = make([]step, 2*k)
		}
		steps = w.steps[:k]
		i := 0
		for c := 0; c < n; c++ {
			for lvl := deep; lvl > 0; lvl-- {
				_, ratio := upgradeDelta(in.Power[c], in.Instr[c], lvl)
				steps[i] = step{key: ratioKey(ratio), core: int32(c), lvl: int32(lvl)}
				i++
			}
		}
		steps = sortSteps(steps, w.steps[k:2*k])
	} else {
		// A short list costs more to sort than to keep in the side heap
		// (an 8-core cluster seed: 525 ns this way, 613 ns by insertion
		// sort and walk): each core's first step goes there, and the walk
		// over an empty list is the heap greedy itself.
		for c := 0; c < n && deep > 0; c++ {
			_, ratio := upgradeDelta(in.Power[c], in.Instr[c], deep)
			w.pushSide(step{key: ratioKey(ratio), core: int32(c), lvl: int32(deep)})
		}
	}
	if deep > 0 {
		nodes = int64(n) // the heap greedy scored each core's first candidate
	}
	if cp.Visit(nodes) {
		return v, nodes, true
	}
	p := 0 // the next sorted position the walk has not passed
	for {
		var examined int64
		var sel step
		var selDP float64
		found := false
		for {
			for p < len(steps) && int(v[steps[p].core]) != int(steps[p].lvl) {
				p++ // not available: its core is not at its source mode
			}
			fromSide := len(w.side) > 0 && (p == len(steps) || w.side[0].before(steps[p]))
			var top step
			switch {
			case fromSide:
				top = w.side[0]
			case p < len(steps):
				top = steps[p]
			default:
				top.key = selectFloorKey
			}
			if top.key >= selectFloorKey {
				break // below the scan's selection floor: nothing qualifies
			}
			if fromSide {
				w.popSide()
			} else {
				p++
			}
			examined++
			dp := stepDP(in.Power, top)
			next := power + dp
			if next > in.BudgetW {
				if cert != nil {
					cert.hi = min(cert.hi, next)
				}
				w.stash = append(w.stash, top)
				continue
			}
			if cert != nil {
				cert.lo = max(cert.lo, next)
			}
			sel, selDP, found = top, dp, true
			break
		}
		nodes += examined
		if cp.Visit(examined) {
			return v, nodes, true
		}
		if !found {
			return v, nodes, false
		}
		c := int(sel.core)
		v[c]--
		power += selDP
		if !(selDP >= 0) {
			// Chip power went down or became NaN: stashed upgrades may fit
			// again.
			for _, s := range w.stash {
				w.pushSide(s)
			}
			w.stash = w.stash[:0]
		}
		if v[c] > 0 {
			nodes++
			_, ratio := upgradeDelta(in.Power[c], in.Instr[c], v[c])
			succ := step{key: ratioKey(ratio), core: int32(c), lvl: int32(v[c])}
			if p == len(steps) || succ.before(steps[p]) {
				w.pushSide(succ) // already passed: the walk will not reach it
			}
		}
	}
}

// sortSteps stably sorts steps by key and returns the sorted list, which is
// steps itself or buf (len(buf) ≥ len(steps)). It radix-sorts on the keys'
// upper 32 bits (sign, exponent and the leading 20 mantissa bits), which
// separate nearly every pair of distinct ratios, then orders each run that
// shares them on the lower 32 bits, by insertion sort or, when long, by
// radix sort again. Every pass is stable, so equal keys keep their
// emission order. One LSD radix over all eight key bytes needs eight
// passes, as the low mantissa bytes are never constant: on a 1024-core list
// (2,048 steps, 2-vCPU host) it took 95 µs to this sort's 49 µs, and
// slices.SortStableFunc 478 µs.
func sortSteps(steps, buf []step) []step {
	buf = buf[:len(steps)]
	s := radixSteps(steps, buf, 32)
	other := buf
	if &s[0] == &buf[0] {
		other = steps
	}
	for a := 0; a < len(s); {
		b := a + 1
		for b < len(s) && s[b].key>>32 == s[a].key>>32 {
			b++
		}
		if b-a > insertionMax {
			if r := radixSteps(s[a:b], other[a:b], 0); &r[0] != &s[a] {
				copy(s[a:b], r)
			}
		} else {
			insertionSortSteps(s[a:b])
		}
		a = b
	}
	return s
}

func insertionSortSteps(steps []step) {
	for a := 1; a < len(steps); a++ {
		q := steps[a]
		b := a - 1
		for b >= 0 && steps[b].key > q.key {
			steps[b+1] = steps[b]
			b--
		}
		steps[b+1] = q
	}
}

// radixSteps stably sorts src by the four key bytes from bit shift up, in
// LSD passes that ping-pong between src and dst, and returns whichever holds
// the result. Its histograms live on the stack, so a session holds no sort
// state; a byte every key shares costs no pass.
func radixSteps(src, dst []step, shift uint) []step {
	var hist [4][256]uint32
	for _, s := range src {
		k := s.key >> shift
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
	}
	for d := range hist {
		h := &hist[d]
		sh := shift + 8*uint(d)
		if h[byte(src[0].key>>sh)] == uint32(len(src)) {
			continue
		}
		var sum uint32
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for _, s := range src {
			b := byte(s.key >> sh)
			dst[h[b]] = s
			h[b]++
		}
		src, dst = dst, src
	}
	return src
}

func (w *walkScratch) pushSide(s step) {
	w.side = append(w.side, s)
	h := w.side
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (w *walkScratch) popSide() {
	h := w.side
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	w.side = h
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		c := l
		if r := l + 1; r < len(h) && h[r].before(h[l]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
