package solver

import (
	"sync"
	"sync/atomic"
	"time"

	"gpm/internal/modes"
)

// clockStride is the number of visited nodes between wall-clock reads in a
// timed Checkpoint. Reading the clock per node would dominate the hot loops;
// a stride of 256 bounds the overshoot past the deadline to the time of 256
// node evaluations (sub-microsecond for every solver) while keeping the
// steady-state cost to one atomic load per node batch.
const clockStride = 256

// cpBatch is how many nodes the enumerative hot loops accumulate locally
// before charging them to the shared Checkpoint, so the per-node cost of
// cancellation is a local integer increment rather than an atomic add.
const cpBatch = 64

// Checkpoint is the cooperative cancellation token threaded through the
// solvers' hot loops. A solve observing an exhausted checkpoint stops where
// it is and returns its best incumbent so far (always a feasible vector, or
// the all-deepest floor when nothing feasible was seen). Checkpoints are
// safe for concurrent use, so Abort may come from another goroutine while a
// solve charges nodes to the token.
//
// A nil *Checkpoint is valid everywhere and means "never abort", so the
// unbounded paths stay free of conditionals beyond a nil check.
type Checkpoint struct {
	nodeLimit int64
	deadline  time.Time
	timed     bool

	nodes     atomic.Int64
	nextClock atomic.Int64
	aborted   atomic.Bool
}

// NewCheckpoint builds a checkpoint with a wall-clock budget (0 = untimed)
// and a node budget (0 = unlimited). The wall deadline starts now.
func NewCheckpoint(wall time.Duration, nodeLimit int64) *Checkpoint {
	cp := &Checkpoint{}
	cp.reset(wall, nodeLimit)
	return cp
}

// reset re-arms a (possibly pooled) checkpoint for a fresh solve.
func (cp *Checkpoint) reset(wall time.Duration, nodeLimit int64) {
	cp.nodeLimit = nodeLimit
	cp.timed = wall > 0
	if cp.timed {
		cp.deadline = time.Now().Add(wall)
	}
	cp.nodes.Store(0)
	cp.nextClock.Store(clockStride)
	cp.aborted.Store(false)
}

// Visit charges n evaluated nodes and reports whether the solve must stop.
// Safe on a nil receiver (never aborts).
func (cp *Checkpoint) Visit(n int64) bool {
	if cp == nil {
		return false
	}
	if cp.aborted.Load() {
		return true
	}
	total := cp.nodes.Add(n)
	if cp.nodeLimit > 0 && total > cp.nodeLimit {
		cp.aborted.Store(true)
		return true
	}
	if cp.timed && total >= cp.nextClock.Load() {
		cp.nextClock.Store(total + clockStride)
		if !time.Now().Before(cp.deadline) {
			cp.aborted.Store(true)
			return true
		}
	}
	return false
}

// Abort cancels the solve externally (e.g. a supervisor abandoning a
// decision). Safe on a nil receiver (no-op).
func (cp *Checkpoint) Abort() {
	if cp != nil {
		cp.aborted.Store(true)
	}
}

// Aborted reports whether the checkpoint has fired. Safe on nil (false).
func (cp *Checkpoint) Aborted() bool { return cp != nil && cp.aborted.Load() }

// Nodes returns the nodes charged so far. Safe on nil (0).
func (cp *Checkpoint) Nodes() int64 {
	if cp == nil {
		return 0
	}
	return cp.nodes.Load()
}

// Bounded is the optional solver facet for cooperative cancellation. All
// solvers in this package implement it; SolveBounded with a nil checkpoint
// is identical to Solve.
type Bounded interface {
	Solver
	SolveBounded(in Instance, cp *Checkpoint) (modes.Vector, Stats)
}

// Compile-time proof that every registry solver is Bounded.
var (
	_ Bounded = Exhaustive{}
	_ Bounded = (*BB)(nil)
	_ Bounded = (*Hier)(nil)
	_ Bounded = Greedy{}
)

// SolveBounded runs s under cp when s supports cooperative cancellation and
// falls back to a plain (uncancellable) Solve otherwise.
func SolveBounded(s Solver, in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	if b, ok := s.(Bounded); ok {
		return b.SolveBounded(in, cp)
	}
	return s.Solve(in)
}

// Deadline wraps a solver with per-Solve wall-clock and node budgets, so a
// decision can be abandoned mid-solve: when either budget is exhausted the
// inner solver stops at its next checkpoint and returns its incumbent with
// Stats.Aborted set (and Exact cleared). A zero Wall and zero Nodes make the
// wrapper transparent — bit-identical to the inner solver.
//
// Checkpoints are pooled, so the wrapper adds no steady-state allocations to
// the decision path. The wrapper is safe for concurrent Solve calls iff the
// inner solver is.
type Deadline struct {
	// Inner is the wrapped solver.
	Inner Solver
	// Wall is the wall-clock budget per Solve (0 = untimed).
	Wall time.Duration
	// Nodes is the node budget per Solve (0 = unlimited). Node budgets are
	// deterministic: the same instance aborts at the same point every run.
	Nodes int64

	pool sync.Pool
}

// WithDeadline wraps s with wall-clock and node budgets.
func WithDeadline(s Solver, wall time.Duration, nodes int64) *Deadline {
	return &Deadline{Inner: s, Wall: wall, Nodes: nodes}
}

// Name implements Solver. The wrapper is transparent: it reports the inner
// solver's name so policy labels and Stats.Solver stay stable.
func (d *Deadline) Name() string { return d.Inner.Name() }

// Solve implements Solver.
func (d *Deadline) Solve(in Instance) (modes.Vector, Stats) {
	if d.Wall <= 0 && d.Nodes <= 0 {
		return d.Inner.Solve(in)
	}
	cp, _ := d.pool.Get().(*Checkpoint)
	if cp == nil {
		cp = &Checkpoint{}
	}
	cp.reset(d.Wall, d.Nodes)
	v, st := SolveBounded(d.Inner, in, cp)
	if cp.Aborted() {
		st.Aborted = true
		st.Exact = false
	}
	d.pool.Put(cp)
	return v, st
}
