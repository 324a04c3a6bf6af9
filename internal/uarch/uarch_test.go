package uarch

import (
	"testing"

	"gpm/internal/bpred"
	"gpm/internal/cache"
	"gpm/internal/config"
	"gpm/internal/isa"
	"gpm/internal/power"
	"gpm/internal/workload"
)

// scriptStream replays a fixed instruction slice.
type scriptStream struct {
	ins []isa.Instruction
	i   int
}

func (s *scriptStream) Next() (isa.Instruction, bool) {
	if s.i >= len(s.ins) {
		return isa.Instruction{}, false
	}
	in := s.ins[s.i]
	in.Seq = uint64(s.i)
	s.i++
	return in, true
}

func newCore(t testing.TB, str isa.Stream) *Core {
	t.Helper()
	return newCoreFrom(t, config.Default(1), str)
}

// newCoreFrom builds a core with an explicit configuration and fresh private
// caches and predictor.
func newCoreFrom(t testing.TB, cfg config.Config, str isa.Stream) *Core {
	t.Helper()
	l2 := cache.NewSharedL2(cfg.Mem.L2, cfg.Mem.L2Banks, cfg.Mem.L2BusCyclesPerAccess)
	hier := cache.NewHierarchy(cfg.Mem, l2)
	pred := bpred.New(cfg.Core.BimodalEntries, cfg.Core.GshareEntries, cfg.Core.SelectorEntries, cfg.Core.GshareHistory)
	return New(cfg, str, hier, pred)
}

// measure runs Measure over str with fresh private caches and predictor.
func measure(cfg config.Config, str isa.Stream, scales ...float64) []power.Activity {
	l2 := cache.NewSharedL2(cfg.Mem.L2, cfg.Mem.L2Banks, cfg.Mem.L2BusCyclesPerAccess)
	hier := cache.NewHierarchy(cfg.Mem, l2)
	pred := bpred.New(cfg.Core.BimodalEntries, cfg.Core.GshareEntries, cfg.Core.SelectorEntries, cfg.Core.GshareHistory)
	return Measure(cfg, str, hier, pred, scales, 5000, 30000)
}

// independent builds n independent FX instructions (invariant sources only).
func independent(n int) []isa.Instruction {
	ins := make([]isa.Instruction, n)
	for i := range ins {
		ins[i] = isa.Instruction{
			PC:   0x1000_0000 + uint64(i%16)*4,
			Op:   isa.OpFX,
			Dest: isa.Reg(i % 16),
			Src1: 30, // never written: always ready
			Src2: isa.NoReg,
		}
	}
	return ins
}

func TestIndependentFXThroughputBoundedByFXUs(t *testing.T) {
	c := newCore(t, &scriptStream{ins: independent(20000)})
	if !c.RunInstructions(20000) {
		t.Fatal("stream ended early")
	}
	c.ctr.Cycles = c.Frontier()
	ipc := c.IPC()
	// Two FXUs bound sustained FX throughput at 2/cycle.
	if ipc > 2.05 {
		t.Errorf("FX IPC %.2f exceeds the 2-FXU bound", ipc)
	}
	if ipc < 1.5 {
		t.Errorf("independent FX stream IPC %.2f too low (structural over-stall)", ipc)
	}
}

func TestSerialChainBoundedByLatency(t *testing.T) {
	// Each instruction reads the previous one's destination: IPC ≤ 1.
	n := 20000
	ins := make([]isa.Instruction, n)
	for i := range ins {
		ins[i] = isa.Instruction{
			PC:   0x1000_0000 + uint64(i%16)*4,
			Op:   isa.OpFX,
			Dest: 1,
			Src1: 1,
			Src2: isa.NoReg,
		}
	}
	c := newCore(t, &scriptStream{ins: ins})
	c.RunInstructions(uint64(n))
	c.ctr.Cycles = c.Frontier()
	if ipc := c.IPC(); ipc > 1.01 {
		t.Errorf("fully serial chain IPC %.2f exceeds 1.0", ipc)
	}
}

func TestMemoryLatencySensitivityToFrequency(t *testing.T) {
	// A pointer-chase-like stream: loads with serial dependences through the
	// cold region miss everywhere; at lower frequency the same program takes
	// fewer core cycles because memory latency shrinks in cycles.
	mk := func() isa.Stream {
		spec := workload.MustLookup("mcf")
		return workload.NewGenerator(spec, 0, 1)
	}
	run := func(f float64) (cycles uint64) {
		return measure(config.Default(1), mk(), f)[0].Cycles
	}
	turbo := run(1.0)
	eff2 := run(0.85)
	if eff2 >= turbo {
		t.Errorf("memory-bound cycles did not shrink with frequency: %d -> %d", turbo, eff2)
	}
	// Wall time = cycles / f must not improve: Eff2 is never faster.
	if float64(eff2)/0.85 < float64(turbo)*0.98 {
		t.Errorf("Eff2 wall time implausibly better than Turbo")
	}
}

func TestCPUBoundInsensitiveToFrequency(t *testing.T) {
	run := func(f float64) (cycles uint64) {
		spec := workload.MustLookup("sixtrack")
		return measure(config.Default(1), workload.NewGenerator(spec, 0, 1), f)[0].Cycles
	}
	turbo := run(1.0)
	eff2 := run(0.85)
	// Few memory stalls ⇒ cycle count nearly mode-invariant.
	ratio := float64(eff2) / float64(turbo)
	if ratio < 0.90 || ratio > 1.05 {
		t.Errorf("CPU-bound cycle ratio %.3f, want ≈1", ratio)
	}
}

func TestMispredictPenaltyVisible(t *testing.T) {
	// Alternate random branches vs no branches; random branches must cost
	// cycles. PCs vary so the predictor cannot memorize.
	mkBranches := func(noise bool) []isa.Instruction {
		ins := make([]isa.Instruction, 30000)
		for i := range ins {
			if i%8 == 7 {
				taken := false
				if noise {
					taken = (i*2654435761)%97 < 48 // pseudo-random half
				}
				ins[i] = isa.Instruction{PC: 0x1000_0000 + uint64(i%4096)*4, Op: isa.OpBranch, Dest: isa.NoReg, Src1: 30, Src2: isa.NoReg, Taken: taken}
			} else {
				ins[i] = independent(1)[0]
				ins[i].PC = 0x1000_0000 + uint64(i%4096)*4
			}
		}
		return ins
	}
	run := func(noise bool) uint64 {
		c := newCore(t, &scriptStream{ins: mkBranches(noise)})
		c.RunInstructions(30000)
		return c.Frontier()
	}
	predictable := run(false)
	noisy := run(true)
	if noisy <= predictable {
		t.Errorf("random branches did not slow execution: %d vs %d cycles", noisy, predictable)
	}
}

func TestROBLimitsInFlight(t *testing.T) {
	// A long-latency load followed by many independent instructions: the
	// ROB (256) bounds how far the frontier can run ahead, so retire stalls
	// behind the load.
	cfg := config.Default(1)
	ins := []isa.Instruction{{
		PC: 0x1000_0000, Op: isa.OpLoad, Dest: 1, Src1: 30, Src2: isa.NoReg, Addr: 0x9000_0000,
	}}
	ins = append(ins, independent(1000)...)
	c := newCore(t, &scriptStream{ins: ins})
	c.RunInstructions(uint64(len(ins)))
	// The load misses everywhere: ~87 cycles. All 1000 fillers are
	// independent but must retire after it (in order): frontier >= load
	// latency + 1000/retireWidth.
	min := uint64(cfg.Mem.MemoryLatencyCycles) + uint64(1000/cfg.Core.RetireWidth)
	if c.Frontier() < min {
		t.Errorf("frontier %d below in-order retire bound %d", c.Frontier(), min)
	}
}

func TestActivityFactorsInRange(t *testing.T) {
	spec := workload.MustLookup("gcc")
	act := measure(config.Default(1), workload.NewGenerator(spec, 0, 2), 1)[0]
	for name, v := range map[string]float64{
		"fetch": act.Fetch, "decode": act.Decode, "issue": act.Issue,
		"fxu": act.FXU, "fpu": act.FPU, "lsu": act.LSU, "bru": act.BRU,
		"regfile": act.RegFile, "l2": act.L2,
	} {
		if v < 0 || v > 1 {
			t.Errorf("activity %s = %v outside [0,1]", name, v)
		}
	}
	if act.Committed == 0 || act.Cycles == 0 {
		t.Error("no committed instructions or cycles recorded")
	}
	if act.IPC() <= 0 {
		t.Error("non-positive IPC")
	}
}

func TestSetFreqScalePanicsOutOfRange(t *testing.T) {
	c := newCore(t, &scriptStream{ins: independent(1)})
	for _, f := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetFreqScale(%v) should panic", f)
				}
			}()
			c.SetFreqScale(f)
		}()
	}
}

func TestStreamExhaustion(t *testing.T) {
	c := newCore(t, &scriptStream{ins: independent(100)})
	if c.RunInstructions(200) {
		t.Error("RunInstructions should report stream end")
	}
	if c.Counters().Committed != 100 {
		t.Errorf("committed %d, want 100", c.Counters().Committed)
	}
	if c.Run(c.Frontier() + 1000) {
		t.Error("Run past stream end should report false")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Counters {
		spec := workload.MustLookup("crafty")
		c := newCore(t, workload.NewGenerator(spec, 0, 7))
		c.RunInstructions(35000)
		return c.Counters()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestMeasureLanesMatchCores pins the lockstep: each of Measure's lanes
// reads what a Core of its own at that scale reads over a fresh copy of the
// stream, caches and predictor, the frequency-sensitive mcf and the
// branch-heavy gcc alike.
func TestMeasureLanesMatchCores(t *testing.T) {
	cfg := config.Default(1)
	scales := []float64{1, 0.95, 0.85, 0.6}
	for _, name := range []string{"mcf", "gcc"} {
		spec := workload.MustLookup(name)
		acts := measure(cfg, workload.NewGenerator(spec, 1, 3), scales...)
		for j, f := range scales {
			c := newCoreFrom(t, cfg, workload.NewGenerator(spec, 1, 3))
			c.SetFreqScale(f)
			c.RunInstructions(5000)
			start := c.Frontier()
			c.ResetCounters()
			c.RunInstructions(30000)
			c.SetCounterCycles(c.Frontier() - start)
			if want := c.Activity(); acts[j] != want {
				t.Errorf("%s at scale %v: lane %+v, core %+v", name, f, acts[j], want)
			}
		}
	}
}

// TestFetchLookedUpBeforeData pins the order of one instruction's two
// lookups, which sets the LRU order of a set both touch: the group's fetch
// first, then the instruction's data, as in the timed lane. On a one-set,
// two-way L2 a third line then evicts the fetched block and keeps the data.
func TestFetchLookedUpBeforeData(t *testing.T) {
	cfg := config.Default(1)
	cfg.Mem.L2 = config.CacheLevel{SizeBytes: 256, Assoc: 2, BlockSize: 128, LatencyCycles: 9}
	const pc, data, other = 0x1000_0000, 0x9000_0000, 0xa000_0000
	ins := []isa.Instruction{
		{PC: pc, Op: isa.OpLoad, Dest: 1, Src1: 30, Src2: isa.NoReg, Addr: data},
		{PC: pc + 4, Op: isa.OpLoad, Dest: 2, Src1: 30, Src2: isa.NoReg, Addr: other},
	}
	c := newCoreFrom(t, cfg, &scriptStream{ins: ins})
	c.RunInstructions(uint64(len(ins)))
	if !c.hier.L2.Access(data) {
		t.Error("the third line evicted the data, not the fetched block: data looked up before fetch")
	}
}
