package trace

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"gpm/internal/bpred"
	"gpm/internal/cache"
	"gpm/internal/config"
	"gpm/internal/modes"
	"gpm/internal/power"
	"gpm/internal/uarch"
	"gpm/internal/workload"
)

// refCharacterize is a frozen copy of Characterize from before one front
// drove every mode: for each (mode, phase) pair it builds a fresh
// generator, caches and predictor and simulates the whole warm-up and
// sample again, at that mode's frequency scale alone.
// TestCharacterizeMatchesReference holds Characterize to it bit for bit, and
// BenchmarkCharacterize times the two side by side.
func refCharacterize(cfg config.Config, model power.Model, plan modes.Plan, spec workload.Spec) (*Profile, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	pr := &Profile{
		Spec: spec,
		Plan: plan,
		Seed: cfg.Sim.Seed,
	}
	nm := plan.NumModes()
	pr.Behavior = make([][]PhaseBehavior, nm)
	for m := 0; m < nm; m++ {
		pr.Behavior[m] = make([]PhaseBehavior, len(spec.Phases))
		for ph := range spec.Phases {
			gen := workload.NewGenerator(spec, ph, cfg.Sim.Seed)
			l2 := cache.NewSharedL2(cfg.Mem.L2, cfg.Mem.L2Banks, cfg.Mem.L2BusCyclesPerAccess)
			hier := cache.NewHierarchy(cfg.Mem, l2)
			pred := bpred.New(cfg.Core.BimodalEntries, cfg.Core.GshareEntries, cfg.Core.SelectorEntries, cfg.Core.GshareHistory)
			f := plan.FreqScale(modes.Mode(m))
			warmRegion(hier, workload.HotBase, spec.HotSetBytes, cfg.Mem.L1D.BlockSize)
			warmRegion(hier, workload.ColdBase, spec.ColdSetBytes, cfg.Mem.L1D.BlockSize)
			warmCode(hier, workload.CodeBase, spec.CodeFootprint, cfg.Mem.L1I.BlockSize)
			act := uarch.Measure(cfg, gen, hier, pred, []float64{f}, uint64(cfg.Sim.WarmupInstructions), uint64(cfg.Sim.SampleInstructions))[0]
			b := PhaseBehavior{
				PowerW:     model.CorePower(act, plan, modes.Mode(m)),
				IPC:        act.IPC(),
				RatePerSec: act.IPC() * f * cfg.Chip.NominalFreqHz,
				Activity:   act,
			}
			if b.RatePerSec <= 0 {
				return nil, fmt.Errorf("trace: %s phase %d mode %d measured zero rate", spec.Name, ph, m)
			}
			pr.Behavior[m][ph] = b
		}
	}
	pr.PhaseInstr = make([]float64, len(spec.Phases))
	var wsum float64
	for _, p := range spec.Phases {
		wsum += p.Weight
	}
	for i, p := range spec.Phases {
		sec := float64(spec.PhasePeriodUs) * 1e-6 * p.Weight / wsum
		pr.PhaseInstr[i] = sec * pr.Behavior[0][i].RatePerSec
		pr.PeriodInstr += pr.PhaseInstr[i]
	}
	return pr, nil
}

// smallSample shrinks the warm-up and sample to a fraction of the default
// so a characterization of every benchmark takes well under a second.
func smallSample(cfg config.Config) config.Config {
	cfg.Sim.WarmupInstructions = 8_000
	cfg.Sim.SampleInstructions = 6_000
	return cfg
}

// behaviorBits lists every float of b as its bit pattern, and its counts.
func behaviorBits(b PhaseBehavior) []uint64 {
	a := b.Activity
	out := []uint64{a.Committed, a.Cycles}
	for _, f := range []float64{b.PowerW, b.IPC, b.RatePerSec,
		a.Fetch, a.Decode, a.Issue, a.FXU, a.FPU, a.LSU, a.BRU, a.RegFile, a.L2} {
		out = append(out, math.Float64bits(f))
	}
	return out
}

// Golden digests of the profiles TestCharacterizeMatchesReference builds
// (profileDigest over all twelve benchmarks in workload.Names order),
// captured from the per-(mode, phase) loop before one front drove every
// mode. They pin the bits themselves, where the reference pins only that
// the lanes agree with separate runs of the same front and timing body. A
// change to the core model that moves a profile must re-capture them and
// say why.
const (
	goldenDefaultDigest      = 0xa6ca8634f7b17fab
	goldenDefaultSmallDigest = 0x8ff05a949b014345 // the default plan under -short
	goldenLinear5Digest      = 0xb975671c22f8cb98
)

// profileDigest folds every bit behaviorBits lists, for every mode and
// phase, and the phase lengths of pr into h.
func profileDigest(h hash.Hash64, pr *Profile) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for m := range pr.Behavior {
		for _, b := range pr.Behavior[m] {
			for _, v := range behaviorBits(b) {
				put(v)
			}
		}
	}
	for _, l := range pr.PhaseInstr {
		put(math.Float64bits(l))
	}
	put(math.Float64bits(pr.PeriodInstr))
}

// sameProfile requires got to match want bit for bit: every PhaseBehavior
// field, each Activity field included, and the phase lengths.
func sameProfile(t *testing.T, what string, got, want *Profile) {
	t.Helper()
	if len(got.Behavior) != len(want.Behavior) {
		t.Fatalf("%s: %d modes, want %d", what, len(got.Behavior), len(want.Behavior))
	}
	for m := range want.Behavior {
		for ph := range want.Behavior[m] {
			g, w := behaviorBits(got.Behavior[m][ph]), behaviorBits(want.Behavior[m][ph])
			for k := range w {
				if g[k] != w[k] {
					t.Errorf("%s mode %d phase %d: field %d reads %#x, reference %#x\n got %+v\nwant %+v",
						what, m, ph, k, g[k], w[k], got.Behavior[m][ph], want.Behavior[m][ph])
					break
				}
			}
		}
	}
	for i := range want.PhaseInstr {
		if math.Float64bits(got.PhaseInstr[i]) != math.Float64bits(want.PhaseInstr[i]) {
			t.Errorf("%s: PhaseInstr[%d] %v, reference %v", what, i, got.PhaseInstr[i], want.PhaseInstr[i])
		}
	}
	if math.Float64bits(got.PeriodInstr) != math.Float64bits(want.PeriodInstr) {
		t.Errorf("%s: PeriodInstr %v, reference %v", what, got.PeriodInstr, want.PeriodInstr)
	}
}

// TestCharacterizeMatchesReference pins every profile bit for bit to the
// per-(mode, phase) loop it replaced: every PhaseBehavior field, each
// Activity field included, and the phase lengths, for all twelve
// benchmarks, and the digests of both plans' profiles to their goldens. It
// runs the default three-mode plan at the default sample size, and a
// five-mode plan with other frequency scales at a smaller one, so nothing
// rests on there being three lanes. Under -short the default plan runs at
// the smaller size too, against its own golden.
func TestCharacterizeMatchesReference(t *testing.T) {
	def := config.Default(4)
	small := smallSample(def)
	defGolden := uint64(goldenDefaultDigest)
	if testing.Short() {
		def, defGolden = small, goldenDefaultSmallDigest
	}
	cases := []struct {
		name   string
		cfg    config.Config
		plan   modes.Plan
		golden uint64
	}{
		{"default", def, modes.Default(def.Chip.NominalVdd, def.Chip.TransitionRateVPerUs), defGolden},
		{"linear5", small, modes.Linear(5, 0.62, small.Chip.NominalVdd, small.Chip.TransitionRateVPerUs), goldenLinear5Digest},
	}
	model := power.Default()
	for _, c := range cases {
		h := fnv.New64a()
		for _, name := range workload.Names() {
			spec := workload.MustLookup(name)
			got, err := Characterize(c.cfg, model, c.plan, spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, name, err)
			}
			want, err := refCharacterize(c.cfg, model, c.plan, spec)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", c.name, name, err)
			}
			sameProfile(t, c.name+"/"+name, got, want)
			profileDigest(h, got)
		}
		if d := h.Sum64(); d != c.golden {
			t.Errorf("%s: profile digest %#x, golden %#x", c.name, d, c.golden)
		}
	}
}

// TestCharacterizeAcrossWorkers characterizes every benchmark, nine with
// two phases and mcf, ammp and gcc with three, with its phases on one
// goroutine and on three, and holds the concurrent profiles to the serial
// ones field by field and both to the pinned digests. Phases that shared a
// hierarchy, predictor or generator would interleave on it, move the
// three-worker digest and race under -race; phases that wrote one Behavior
// slot would move both digests. Both plans run at the small sample; under
// -short only the default plan runs.
func TestCharacterizeAcrossWorkers(t *testing.T) {
	cfg := smallSample(config.Default(4))
	cases := []struct {
		name   string
		plan   modes.Plan
		golden uint64
	}{
		{"default", modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs), goldenDefaultSmallDigest},
		{"linear5", modes.Linear(5, 0.62, cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs), goldenLinear5Digest},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	model := power.Default()
	for _, c := range cases {
		serial := fnv.New64a()
		fanned := fnv.New64a()
		for _, name := range workload.Names() {
			spec := workload.MustLookup(name)
			one, err := characterize(cfg, model, c.plan, spec, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, name, err)
			}
			three, err := characterize(cfg, model, c.plan, spec, 3)
			if err != nil {
				t.Fatalf("%s/%s at 3 workers: %v", c.name, name, err)
			}
			sameProfile(t, c.name+"/"+name+" at 3 workers", three, one)
			profileDigest(serial, one)
			profileDigest(fanned, three)
		}
		if d := serial.Sum64(); d != c.golden {
			t.Errorf("%s at 1 worker: profile digest %#x, golden %#x", c.name, d, c.golden)
		}
		if d := fanned.Sum64(); d != c.golden {
			t.Errorf("%s at 3 workers: profile digest %#x, golden %#x", c.name, d, c.golden)
		}
	}
}
