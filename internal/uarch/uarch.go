// Package uarch is the Turandot substitute: a dependence-driven, cycle-level
// timing model of the Table 1 out-of-order core.
//
// The model processes the dynamic instruction stream in program order and
// computes, per instruction, the cycles at which it is fetched, dispatched,
// issued, completed and retired, subject to the structural resources of the
// Table 1 machine: fetch/dispatch/retire widths, instruction-queue and
// reservation-station capacity, reorder-buffer size, physical registers,
// functional-unit counts and latencies, the branch predictor, and the cache
// hierarchy. This O(instructions) formulation is standard for trace-driven
// processor models and preserves the quantities the power-management study
// depends on — IPC, memory-stall sensitivity to frequency, and per-unit
// activity — at a small fraction of the cost of a per-cycle structural
// simulator.
//
// DVFS enters through SetFreqScale: latencies of the asynchronous domains
// (shared L2, memory) are rescaled in core cycles, which is what makes
// memory-bound workloads nearly frequency-insensitive (Fig 2's mcf corner).
//
// A core is a functional front (the stream, fetch groups, the predictor
// and, for an untimed hierarchy, the cache lookups) driving a timing lane.
// With the hierarchy untimed no frequency scale changes what the front
// computes, so Measure drives one lane per scale from a single front.
package uarch

import (
	"math"

	"gpm/internal/bpred"
	"gpm/internal/cache"
	"gpm/internal/config"
	"gpm/internal/isa"
	"gpm/internal/power"
)

// frontEndDepth is the number of pipeline stages between fetch and dispatch.
const frontEndDepth = 3

// ring is a fixed-size cycle ring used to model capacity constraints: entry
// i of a capacity-k resource is free once the (i-k)-th user released it.
// The cursor wraps by compare-and-reset rather than modulo: freeAt/push run
// ~11 times per simulated instruction, and a 64-bit divide per call is
// measurable at that rate.
type ring struct {
	buf []uint64
	pos int
}

func newRing(k int) ring {
	if k < 1 {
		k = 1
	}
	return ring{buf: make([]uint64, k)}
}

// freeAt returns the cycle at which a new slot is available, given the
// release cycles pushed so far.
func (r *ring) freeAt() uint64 { return r.buf[r.pos] }

// push records that the newly allocated slot is released at cycle c.
func (r *ring) push(c uint64) {
	r.buf[r.pos] = c
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
	}
}

// fuBank models one class of pipelined functional units (1/cycle throughput
// per instance).
type fuBank struct {
	nextFree []uint64
}

func newFUBank(n int) fuBank { return fuBank{nextFree: make([]uint64, n)} }

// issue reserves the earliest-available instance at or after cycle c and
// returns the actual issue cycle.
func (b *fuBank) issue(c uint64) uint64 {
	best := 0
	for i := 1; i < len(b.nextFree); i++ {
		if b.nextFree[i] < b.nextFree[best] {
			best = i
		}
	}
	if b.nextFree[best] > c {
		c = b.nextFree[best]
	}
	b.nextFree[best] = c + 1
	return c
}

// Counters accumulate raw event counts over a measurement window.
type Counters struct {
	Cycles      uint64
	Fetched     uint64
	Committed   uint64
	FXOps       uint64
	FPOps       uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64

	L1IMisses  uint64
	L1DMisses  uint64
	L2Accesses uint64
	L2Misses   uint64

	RegReads  uint64
	RegWrites uint64

	// IQWaitSum accumulates (issue − dispatch) over instructions; divided by
	// (IQ size × cycles) it approximates issue-queue occupancy.
	IQWaitSum uint64

	// L2WaitCycles accumulates contention queueing delay charged by a shared
	// L2 (full-CMP simulation only).
	L2WaitCycles uint64

	// MSHRWait accumulates cycles misses spent waiting for a free
	// miss-status register.
	MSHRWait uint64
}

// Core is one simulated core: a functional front driving one timing lane.
type Core struct {
	front
	lane
}

// New builds a core over the given stream, hierarchy and predictor, running
// at Turbo frequency until SetFreqScale is called.
func New(cfg config.Config, str isa.Stream, hier *cache.Hierarchy, pred *bpred.Predictor) *Core {
	return &Core{front: newFront(cfg, str, hier, pred), lane: newLane(cfg, 1.0)}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// op is the front's outcome for one instruction: everything about it that
// no cycle count can change.
type op struct {
	in isa.Instruction
	// start marks the first instruction of a fetch group, and newBlock a
	// group that begins in a block other than the previous group's.
	start, newBlock bool
	// mispredict is the predictor's verdict on a branch.
	mispredict bool
	// fetch and data are the levels a group's fetch and a load's or store's
	// access resolved at, when the front looked them up (untimed hierarchy);
	// a lane with GlobalCycle set looks them up itself.
	fetch, data cache.Level
}

// front is the functional half of a core: the instruction stream,
// fetch-group and fetch-block tracking, the branch predictor and, for an
// untimed hierarchy, the cache lookups. None of it reads a cycle count, so
// one front can drive any number of lanes (DESIGN.md §10.4).
type front struct {
	str  isa.Stream
	pred *bpred.Predictor
	hier *cache.Hierarchy

	fetchWidth int
	blockMask  uint64

	groupLeft      int // fetch slots left in the current group
	lastFetchBlock uint64
}

func newFront(cfg config.Config, str isa.Stream, hier *cache.Hierarchy, pred *bpred.Predictor) front {
	return front{
		str:        str,
		pred:       pred,
		hier:       hier,
		fetchWidth: cfg.Core.FetchWidth,
		blockMask:  uint64(cfg.Mem.L1I.BlockSize - 1),
	}
}

// next fills o with the next instruction's outcome, looking up the caches
// when lookup is set, and returns false if the stream is exhausted. The
// group's fetch is looked up before the instruction's data, as the timed
// lane does.
func (f *front) next(o *op, lookup bool) bool {
	in, ok := f.str.Next()
	if !ok {
		return false
	}
	o.in = in
	o.start, o.newBlock = f.groupLeft == 0, false
	o.fetch = cache.LevelL1
	if o.start {
		f.groupLeft = f.fetchWidth
		if blk := in.PC &^ f.blockMask; blk != f.lastFetchBlock {
			f.lastFetchBlock = blk
			o.newBlock = true
			if lookup {
				o.fetch = f.hier.InstrFetch(in.PC)
			}
		}
	}
	f.groupLeft--
	o.mispredict = false
	switch in.Op {
	case isa.OpLoad, isa.OpStore:
		if lookup {
			o.data = f.hier.DataAccessRW(in.Addr, in.Op == isa.OpStore)
		}
	case isa.OpBranch:
		// A mispredicted or taken branch ends its fetch group.
		o.mispredict = f.pred.Update(in.PC, in.Taken)
		if o.mispredict || in.Taken {
			f.groupLeft = 0
		}
	}
	return true
}

// lane is the timing half of a core: the cycle at which each instruction of
// the front's stream is fetched, dispatched, issued, completed and retired
// at one frequency scale, with its own structural resources and counters.
type lane struct {
	cfg config.Config

	// GlobalCycle, when non-nil, converts a local core cycle into the global
	// time base used for shared-L2 contention (full-CMP simulation); the
	// lane then looks up the caches itself, at the cycles it computes.
	GlobalCycle func(local uint64) uint64

	freqScale float64
	l2Lat     uint64
	memLat    uint64

	// pipeline frontier state
	nextFetch  uint64 // earliest cycle the next fetch group may start
	fetchFloor uint64 // one past the last fetch: a new group starts no earlier

	regReady [isa.NumArchRegs]uint64

	rob     ring // reorder-buffer slots, released at retire
	iq      ring // issue-queue slots, released at issue
	memRS   ring
	fixRS   ring
	fpRS    ring
	gprFree ring // physical integer registers, released at retire
	fprFree ring

	lsu fuBank
	fxu fuBank
	fpu fuBank
	bru fuBank

	// mshr bounds outstanding L1D misses: a new miss may not start until a
	// miss-status register frees.
	mshr ring

	retire     ring // retire-width gating
	lastRetire uint64
	frontier   uint64 // retire cycle of the most recent instruction

	ctr Counters
}

func newLane(cfg config.Config, f float64) lane {
	l := lane{
		cfg: cfg,

		rob:     newRing(cfg.Core.ReorderBuffer),
		iq:      newRing(cfg.Core.InstructionQueue),
		memRS:   newRing(cfg.Core.MemRS * cfg.Core.NumLSU),
		fixRS:   newRing(cfg.Core.FixRS * cfg.Core.NumFXU),
		fpRS:    newRing(cfg.Core.FPRS * cfg.Core.NumFPU),
		gprFree: newRing(maxInt(cfg.Core.GPR-32, 1)),
		fprFree: newRing(maxInt(cfg.Core.FPR-32, 1)),

		lsu:  newFUBank(cfg.Core.NumLSU),
		mshr: newRing(maxInt(cfg.Core.MSHRs, 1)),
		fxu:  newFUBank(cfg.Core.NumFXU),
		fpu:  newFUBank(cfg.Core.NumFPU),
		bru:  newFUBank(cfg.Core.NumBRU),

		retire: newRing(cfg.Core.RetireWidth),
	}
	l.SetFreqScale(f)
	return l
}

// SetFreqScale changes the core clock to scale f of nominal and rescales the
// asynchronous-domain latencies (L2, memory) in core cycles.
func (l *lane) SetFreqScale(f float64) {
	if f <= 0 || f > 1 {
		panic("uarch: frequency scale must be in (0,1]")
	}
	l.freqScale = f
	l.l2Lat = uint64(math.Max(1, math.Round(float64(l.cfg.Mem.L2.LatencyCycles)*f)))
	l.memLat = uint64(math.Max(1, math.Round(float64(l.cfg.Mem.MemoryLatencyCycles)*f)))
}

// FreqScale returns the current frequency scale.
func (l *lane) FreqScale() float64 { return l.freqScale }

// Frontier returns the local cycle through which execution has been
// simulated (the retire cycle of the most recent instruction).
func (l *lane) Frontier() uint64 { return l.frontier }

// Counters returns a copy of the accumulated counters.
func (l *lane) Counters() Counters { return l.ctr }

// ResetCounters zeroes the measurement counters (after warmup). Pipeline and
// cache/predictor state is preserved.
func (l *lane) ResetCounters() { l.ctr = Counters{} }

// SetCounterCycles fixes the counters' window length (local cycles), used by
// callers that measure windows in an external time base.
func (l *lane) SetCounterCycles(cycles uint64) { l.ctr.Cycles = cycles }

// dataLatency returns the load-to-use latency for a data access resolved at
// level lv, plus any contention wait already expressed in cycles.
func (l *lane) dataLatency(lv cache.Level) uint64 {
	switch lv {
	case cache.LevelL1:
		return uint64(l.cfg.Mem.L1D.LatencyCycles)
	case cache.LevelL2:
		return uint64(l.cfg.Mem.L1D.LatencyCycles) + l.l2Lat
	default:
		return uint64(l.cfg.Mem.L1D.LatencyCycles) + l.l2Lat + l.memLat
	}
}

func (l *lane) fetchPenalty(lv cache.Level) uint64 {
	switch lv {
	case cache.LevelL1:
		return 0
	case cache.LevelL2:
		return l.l2Lat
	default:
		return l.l2Lat + l.memLat
	}
}

// exec times one instruction of the front's stream: the core's only timing
// body, run by a Core's one lane and by each of Measure's. hier serves the
// lookups of a lane with GlobalCycle set.
func (l *lane) exec(o *op, hier *cache.Hierarchy) {
	in := o.in

	// --- Fetch: a group starts no earlier than a cycle after the last
	// group's final fetch, or a mispredicted branch's redirect ---
	if o.start {
		if l.nextFetch < l.fetchFloor {
			l.nextFetch = l.fetchFloor
		}
		lv := o.fetch
		if o.newBlock && l.GlobalCycle != nil {
			// Timestamped fetch so window-deferred L2 fills merge in
			// canonical time order (full-CMP simulation).
			lv = hier.InstrFetchAt(in.PC, l.GlobalCycle(l.nextFetch))
		}
		if lv != cache.LevelL1 {
			l.ctr.L1IMisses++
			l.ctr.L2Accesses++
			if lv == cache.LevelMemory {
				l.ctr.L2Misses++
			}
		}
		l.nextFetch += l.fetchPenalty(lv)
	}
	fetchCycle := l.nextFetch
	l.fetchFloor = fetchCycle + 1
	l.ctr.Fetched++

	// --- Dispatch: ROB, IQ, RS and physical-register gating ---
	dispatch := fetchCycle + frontEndDepth
	if fa := l.rob.freeAt(); fa > dispatch {
		dispatch = fa
	}
	if fa := l.iq.freeAt(); fa > dispatch {
		dispatch = fa
	}
	var rs *ring
	switch in.Op {
	case isa.OpLoad, isa.OpStore:
		rs = &l.memRS
	case isa.OpFP:
		rs = &l.fpRS
	default:
		rs = &l.fixRS
	}
	if fa := rs.freeAt(); fa > dispatch {
		dispatch = fa
	}
	if in.HasDest() {
		reg := &l.gprFree
		if in.Dest.IsFP() {
			reg = &l.fprFree
		}
		if fa := reg.freeAt(); fa > dispatch {
			dispatch = fa
		}
	}

	// --- Source readiness ---
	srcReady := dispatch
	for _, s := range [2]isa.Reg{in.Src1, in.Src2} {
		if s == isa.NoReg {
			continue
		}
		l.ctr.RegReads++
		if r := l.regReady[s]; r > srcReady {
			srcReady = r
		}
	}

	// --- Issue & execute ---
	earliest := srcReady
	if d := dispatch + 1; d > earliest {
		earliest = d
	}
	var issue, done uint64
	switch in.Op {
	case isa.OpFX:
		issue = l.fxu.issue(earliest)
		done = issue + uint64(l.cfg.Core.FXULatency)
		l.ctr.FXOps++
	case isa.OpFP:
		issue = l.fpu.issue(earliest)
		done = issue + uint64(l.cfg.Core.FPULatency)
		l.ctr.FPOps++
	case isa.OpLoad, isa.OpStore:
		issue = l.lsu.issue(earliest)
		lv := o.data
		var wait uint64
		if l.GlobalCycle != nil {
			lv, wait = hier.DataAccessAtRW(in.Addr, l.GlobalCycle(issue), in.Op == isa.OpStore)
			// Contention wait is in global cycles; convert back to local.
			wait = uint64(math.Round(float64(wait) * l.freqScale))
			l.ctr.L2WaitCycles += wait
		}
		missDone := issue + l.dataLatency(lv) + wait
		if lv != cache.LevelL1 {
			l.ctr.L1DMisses++
			l.ctr.L2Accesses++
			if lv == cache.LevelMemory {
				l.ctr.L2Misses++
			}
			// MSHR gating: the miss cannot start until a miss-status
			// register frees, bounding memory-level parallelism.
			if fa := l.mshr.freeAt(); fa > issue {
				l.ctr.MSHRWait += fa - issue
				missDone += fa - issue
			}
			l.mshr.push(missDone)
		}
		if in.Op == isa.OpLoad {
			done = missDone
			l.ctr.Loads++
		} else {
			// Stores complete at issue from the dependence perspective; the
			// write drains in the background (the MSHR still tracks the
			// line fill on a store miss).
			done = issue + 1
			l.ctr.Stores++
		}
	case isa.OpBranch:
		issue = l.bru.issue(earliest)
		done = issue + uint64(l.cfg.Core.BRULatency)
		l.ctr.Branches++
		// A misprediction redirects fetch once the branch resolves.
		if o.mispredict {
			l.ctr.Mispredicts++
			if redirect := done + uint64(l.cfg.Core.MispredictPenalty); redirect > l.nextFetch {
				l.nextFetch = redirect
			}
		}
	}
	l.ctr.IQWaitSum += issue - dispatch

	// --- Writeback ---
	if in.HasDest() {
		l.regReady[in.Dest] = done
		l.ctr.RegWrites++
	}

	// --- In-order retire ---
	retire := done + 1
	if r := l.lastRetire; r > retire {
		retire = r
	}
	if r := l.retire.freeAt() + 1; r > retire {
		retire = r
	}
	l.retire.push(retire)
	l.lastRetire = retire
	l.frontier = retire
	l.ctr.Committed++

	// --- Release structural resources ---
	l.rob.push(retire)
	l.iq.push(issue)
	rs.push(issue + 1)
	if in.HasDest() {
		if in.Dest.IsFP() {
			l.fprFree.push(retire)
		} else {
			l.gprFree.push(retire)
		}
	}
}

// step processes one dynamic instruction through the front and the core's
// lane. It returns false if the stream is exhausted.
func (c *Core) step() bool {
	var o op
	if !c.front.next(&o, c.GlobalCycle == nil) {
		return false
	}
	c.lane.exec(&o, c.hier)
	return true
}

// Run advances the core until its retire frontier reaches at least
// `untilCycle` (a local-cycle timestamp) and returns false if the stream
// ended first.
func (c *Core) Run(untilCycle uint64) bool {
	for c.frontier < untilCycle {
		if !c.step() {
			return false
		}
	}
	return true
}

// RunInstructions advances the core by n dynamic instructions; it returns
// false if the stream ended first.
func (c *Core) RunInstructions(n uint64) bool {
	for i := uint64(0); i < n; i++ {
		if !c.step() {
			return false
		}
	}
	return true
}

// Measure runs one front over str, an untimed hier and pred, and one lane
// per frequency scale in lockstep: `warmup` instructions, then a window of
// n, and returns each lane's activity over the window, in the order of
// scales. Instruction-based windows keep the measured program region
// identical across DVFS modes; since a mode changes only the timing, the
// lanes share the stream, cache and predictor work (DESIGN.md §10.4), and
// each lane reads exactly what a core of its own over a fresh copy of the
// same stream, hierarchy and predictor would.
func Measure(cfg config.Config, str isa.Stream, hier *cache.Hierarchy, pred *bpred.Predictor, scales []float64, warmup, n uint64) []power.Activity {
	f := newFront(cfg, str, hier, pred)
	lanes := make([]lane, len(scales))
	for i, s := range scales {
		lanes[i] = newLane(cfg, s)
	}
	run := func(k uint64) {
		var o op
		for i := uint64(0); i < k && f.next(&o, true); i++ {
			for j := range lanes {
				lanes[j].exec(&o, hier)
			}
		}
	}
	run(warmup)
	starts := make([]uint64, len(lanes))
	for j := range lanes {
		lanes[j].ResetCounters()
		starts[j] = lanes[j].frontier
	}
	run(n)
	acts := make([]power.Activity, len(lanes))
	for j := range lanes {
		elapsed := lanes[j].frontier - starts[j]
		if elapsed == 0 {
			elapsed = 1
		}
		lanes[j].ctr.Cycles = elapsed
		acts[j] = lanes[j].Activity()
	}
	return acts
}

// Activity converts the current counters into power-model activity factors.
func (l *lane) Activity() power.Activity {
	ct := l.ctr
	cy := float64(ct.Cycles)
	if cy == 0 {
		cy = 1
	}
	util := func(events uint64, perCycle float64) float64 {
		u := float64(events) / (cy * perCycle)
		if u > 1 {
			u = 1
		}
		return u
	}
	return power.Activity{
		Fetch:   util(ct.Fetched, float64(l.cfg.Core.FetchWidth)),
		Decode:  util(ct.Fetched, float64(l.cfg.Core.DispatchWidth)),
		Issue:   util(ct.IQWaitSum, float64(l.cfg.Core.InstructionQueue)),
		FXU:     util(ct.FXOps, float64(l.cfg.Core.NumFXU)),
		FPU:     util(ct.FPOps, float64(l.cfg.Core.NumFPU)),
		LSU:     util(ct.Loads+ct.Stores, float64(l.cfg.Core.NumLSU)),
		BRU:     util(ct.Branches, float64(l.cfg.Core.NumBRU)),
		RegFile: util(ct.RegReads+ct.RegWrites, float64(l.cfg.Core.DispatchWidth)*3),
		// 0.2 accesses/cycle saturates a core's share of L2 bandwidth.
		L2:        util(ct.L2Accesses, 0.2),
		Committed: ct.Committed,
		Cycles:    ct.Cycles,
	}
}

// IPC returns committed instructions per cycle over the counter window.
func (l *lane) IPC() float64 {
	if l.ctr.Cycles == 0 {
		return 0
	}
	return float64(l.ctr.Committed) / float64(l.ctr.Cycles)
}
