package refsim

import (
	"testing"

	"gpm/internal/bpred"
	"gpm/internal/cache"
	"gpm/internal/config"
	"gpm/internal/isa"
	"gpm/internal/uarch"
	"gpm/internal/workload"
)

// warmed returns a hierarchy with bench's data and code regions touched
// once, a fresh predictor and the phase's instruction stream.
func warmed(cfg config.Config, spec workload.Spec, phase int) (*cache.Hierarchy, *bpred.Predictor, isa.Stream) {
	l2 := cache.NewSharedL2(cfg.Mem.L2, cfg.Mem.L2Banks, cfg.Mem.L2BusCyclesPerAccess)
	h := cache.NewHierarchy(cfg.Mem, l2)
	p := bpred.New(cfg.Core.BimodalEntries, cfg.Core.GshareEntries, cfg.Core.SelectorEntries, cfg.Core.GshareHistory)
	warm := func(base uint64, size, blk int, instr bool) {
		for off := 0; off < size; off += blk {
			if instr {
				h.InstrFetch(base + uint64(off))
			} else {
				h.DataAccess(base + uint64(off))
			}
		}
	}
	warm(workload.HotBase, spec.HotSetBytes, cfg.Mem.L1D.BlockSize, false)
	warm(workload.ColdBase, spec.ColdSetBytes, cfg.Mem.L1D.BlockSize, false)
	warm(workload.CodeBase, spec.CodeFootprint, cfg.Mem.L1I.BlockSize, true)
	return h, p, workload.NewGenerator(spec, phase, cfg.Sim.Seed)
}

// measure runs both models over the same warmup and window and returns
// their IPCs.
func measure(t testing.TB, bench string, f float64) (refIPC, fastIPC float64) {
	t.Helper()
	cfg := config.Default(1)
	spec := workload.MustLookup(bench)

	h1, p1, s1 := warmed(cfg, spec, 0)
	ref := New(cfg, s1, h1, p1)
	ref.SetFreqScale(f)
	ref.RunInstructions(50_000)
	ref.ResetStats()
	ref.RunInstructions(50_000)

	h2, p2, s2 := warmed(cfg, spec, 0)
	fast := uarch.Measure(cfg, s2, h2, p2, []float64{f}, 50_000, 50_000)[0]

	return ref.IPC(), fast.IPC()
}

func TestFastModelTracksReferenceIPC(t *testing.T) {
	// The fast dependence-driven model is consistently conservative against
	// the per-cycle reference (its analytic release rings charge front-end
	// and retirement constraints eagerly), but the bias is a near-uniform
	// scalar: ratios cluster tightly across the workload spectrum, so
	// relative benchmark behaviour — the quantity the policy study consumes
	// — is preserved. Assert both the band and its tightness.
	benches := []string{"sixtrack", "crafty", "gcc", "mcf", "art"}
	ratios := make([]float64, 0, len(benches))
	refs := map[string]float64{}
	for _, bench := range benches {
		ref, fast := measure(t, bench, 1.0)
		ratio := fast / ref
		t.Logf("%-9s ref IPC %6.3f  fast IPC %6.3f  ratio %.2f", bench, ref, fast, ratio)
		if ratio < 0.45 || ratio > 1.1 {
			t.Errorf("%s: fast/reference IPC ratio %.2f outside agreement band", bench, ratio)
		}
		ratios = append(ratios, ratio)
		refs[bench] = ref
	}
	lo, hi := ratios[0], ratios[0]
	for _, r := range ratios {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi/lo > 1.5 {
		t.Errorf("conservatism not uniform: ratio spread %.2f–%.2f", lo, hi)
	}
	// Cross-benchmark ordering must match: the CPU-bound group outruns the
	// memory-bound group in both models.
	for _, cpu := range []string{"sixtrack", "crafty", "gcc"} {
		for _, mem := range []string{"mcf", "art"} {
			if refs[cpu] <= refs[mem] {
				t.Errorf("reference model ordering violated: %s (%.2f) <= %s (%.2f)", cpu, refs[cpu], mem, refs[mem])
			}
		}
	}
}

func TestModelsAgreeOnDVFSSensitivity(t *testing.T) {
	// The quantity the policy study depends on: how much wall-clock
	// performance each benchmark loses at Eff2. Both models must put
	// sixtrack near the frequency cut and mcf far below it.
	deg := func(bench string, ref bool) float64 {
		rT, fT := measure(t, bench, 1.0)
		rE, fE := measure(t, bench, 0.85)
		if ref {
			return 1 - (rE * 0.85 / rT)
		}
		return 1 - (fE * 0.85 / fT)
	}
	for _, bench := range []string{"sixtrack", "mcf"} {
		r := deg(bench, true)
		f := deg(bench, false)
		t.Logf("%-9s Eff2 degradation: reference %5.1f%%  fast %5.1f%%", bench, r*100, f*100)
		if d := r - f; d > 0.06 || d < -0.06 {
			t.Errorf("%s: models disagree on Eff2 degradation by %.1f%%", bench, d*100)
		}
	}
	// Ordering must hold within the reference model itself.
	if deg("mcf", true) > deg("sixtrack", true) {
		t.Error("reference model: mcf should be less frequency-sensitive than sixtrack")
	}
}

func TestReferenceDrainsOnStreamEnd(t *testing.T) {
	cfg := config.Default(1)
	spec := workload.MustLookup("gcc")
	l2 := cache.NewSharedL2(cfg.Mem.L2, cfg.Mem.L2Banks, cfg.Mem.L2BusCyclesPerAccess)
	h := cache.NewHierarchy(cfg.Mem, l2)
	p := bpred.New(cfg.Core.BimodalEntries, cfg.Core.GshareEntries, cfg.Core.SelectorEntries, cfg.Core.GshareHistory)
	c := New(cfg, &finiteStream{gen: workload.NewGenerator(spec, 0, 1), n: 5000}, h, p)
	for c.Step() {
		if c.Cycles() > 1_000_000 {
			t.Fatal("pipeline failed to drain")
		}
	}
	if c.Committed() != 5000 {
		t.Errorf("committed %d, want 5000", c.Committed())
	}
}

func TestReferenceRetireWidthBound(t *testing.T) {
	cfg := config.Default(1)
	spec := workload.MustLookup("sixtrack")
	l2 := cache.NewSharedL2(cfg.Mem.L2, cfg.Mem.L2Banks, cfg.Mem.L2BusCyclesPerAccess)
	h := cache.NewHierarchy(cfg.Mem, l2)
	p := bpred.New(cfg.Core.BimodalEntries, cfg.Core.GshareEntries, cfg.Core.SelectorEntries, cfg.Core.GshareHistory)
	c := New(cfg, workload.NewGenerator(spec, 0, 1), h, p)
	c.RunInstructions(20000)
	if ipc := c.IPC(); ipc > float64(cfg.Core.RetireWidth) {
		t.Errorf("IPC %.2f exceeds retire width %d", ipc, cfg.Core.RetireWidth)
	}
}

// finiteStream truncates a generator after n instructions.
type finiteStream struct {
	gen *workload.Generator
	n   int
}

func (s *finiteStream) Next() (isa.Instruction, bool) {
	if s.n <= 0 {
		return isa.Instruction{}, false
	}
	s.n--
	return s.gen.Next()
}
