// Package trace implements the paper's trace-based methodology (§3.1): the
// core simulator characterizes each benchmark once per power mode
// ("single threaded Turandot results for each evaluated power mode"), and
// lightweight Players replay those characterizations inside the CMP
// simulation, tracking each core's program position so that mode switches
// mid-run resume the correct phase behaviour.
//
// Behaviour is indexed by *program position* (committed instructions), not
// wall time: a core slowed to Eff2 moves through its phases more slowly, and
// two cores running the same benchmark in different modes diverge — exactly
// the property the explore-time re-evaluation in the paper depends on.
// Deterministic per-position jitter models the residual interval-to-interval
// variation ("unprecedented application behavior changes", §5.5) that forces
// the manager to correct occasional overshoots.
package trace

import (
	"fmt"
	"sync"

	"gpm/internal/bpred"
	"gpm/internal/cache"
	"gpm/internal/config"
	"gpm/internal/modes"
	"gpm/internal/power"
	"gpm/internal/uarch"
	"gpm/internal/workload"
)

// jitterChunk is the program-position granularity (instructions) at which
// the jitter factors change; roughly one delta-sim interval of progress.
const jitterChunk = 75_000

// rate/power jitter amplitudes (fractional). The power amplitude also sets
// the chip's peak-to-average gap (§1 motivates global management with that
// gap): per-core peaks reach ≈6% above the phase mean, so the worst-case
// envelope budgets are expressed against sits usefully above average power.
const (
	rateJitterAmp  = 0.06
	powerJitterAmp = 0.06
)

// PhaseBehavior is the measured behaviour of one benchmark phase in one mode.
type PhaseBehavior struct {
	// PowerW is the core power in watts.
	PowerW float64
	// IPC is committed instructions per core cycle.
	IPC float64
	// RatePerSec is committed instructions per wall-clock second.
	RatePerSec float64
	// Activity retains the raw utilization snapshot for reports.
	Activity power.Activity
}

// Profile is a benchmark characterized under every mode of a plan.
type Profile struct {
	Spec workload.Spec
	Plan modes.Plan
	// Behavior[mode][phase].
	Behavior [][]PhaseBehavior
	// PhaseInstr[p] is the instruction length of phase p in one pass of the
	// schedule; PeriodInstr is their sum.
	PhaseInstr  []float64
	PeriodInstr float64
	// Seed is the workload-generation seed used.
	Seed int64
}

// Characterize runs the core simulator for every (phase, mode) pair of spec
// and assembles a Profile. Each sample uses a fresh core, private caches and
// predictor — the single-threaded characterization step of §3.1.
func Characterize(cfg config.Config, model power.Model, plan modes.Plan, spec workload.Spec) (*Profile, error) {
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
			core := uarch.New(cfg, gen, hier, pred)
			f := plan.FreqScale(modes.Mode(m))
			core.SetFreqScale(f)
			// Establish steady-state cache residency before sampling: touch
			// the benchmark's data regions once, as a real run would have
			// long before the sampled window. Regions larger than the
			// hierarchy stay miss-dominated regardless.
			warmRegion(hier, workload.HotBase, spec.HotSetBytes, cfg.Mem.L1D.BlockSize)
			warmRegion(hier, workload.ColdBase, spec.ColdSetBytes, cfg.Mem.L1D.BlockSize)
			warmCode(hier, workload.CodeBase, spec.CodeFootprint, cfg.Mem.L1I.BlockSize)
			act := core.Measure(uint64(cfg.Sim.WarmupInstructions), uint64(cfg.Sim.SampleInstructions))
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
	// Phase instruction lengths from the Turbo rates: the schedule's
	// PhasePeriodUs is defined as Turbo wall time.
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

// warmRegion touches every data block of [base, base+size) once.
func warmRegion(h *cache.Hierarchy, base uint64, size, block int) {
	for off := 0; off < size; off += block {
		h.DataAccess(base + uint64(off))
	}
}

// warmCode touches every instruction block of the code footprint once, so
// the sampled window is free of the compulsory-miss tail that random body
// placement would otherwise spread over the first ~100k instructions.
func warmCode(h *cache.Hierarchy, base uint64, size, block int) {
	for off := 0; off < size; off += block {
		h.InstrFetch(base + uint64(off))
	}
}

// phaseEnd maps a program position (instructions, within one schedule
// period) to a phase index and the position where that phase ends.
func (pr *Profile) phaseEnd(posInPeriod float64) (ph int, end float64) {
	for i, l := range pr.PhaseInstr {
		end += l
		if posInPeriod < end {
			return i, end
		}
	}
	return len(pr.PhaseInstr) - 1, end
}

// WholeProgram returns the average power and the execution time of one full
// schedule period under mode m (no jitter): the quantities behind Fig 2.
func (pr *Profile) WholeProgram(m modes.Mode) (avgPowerW, periodSeconds float64) {
	var energy, t float64
	for i := range pr.PhaseInstr {
		b := pr.Behavior[m][i]
		dt := pr.PhaseInstr[i] / b.RatePerSec
		energy += b.PowerW * dt
		t += dt
	}
	return energy / t, t
}

// jitter returns deterministic multiplicative factors for the given program
// chunk; identical across modes at the same position so that mode prediction
// sees correlated behaviour (§5.5).
func (pr *Profile) jitter(chunk uint64) (rate, pw float64) {
	h := chunk*0x9e3779b97f4a7c15 ^ uint64(pr.Seed)
	// Avalanche mix with the benchmark name folded in.
	for _, ch := range pr.Spec.Name {
		h = (h ^ uint64(ch)) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	u1 := float64(h&0xffff)/65535.0*2 - 1       // [-1,1]
	u2 := float64((h>>16)&0xffff)/65535.0*2 - 1 // [-1,1]
	return 1 + rateJitterAmp*u1, 1 + powerJitterAmp*u2
}

// Player replays a profile; it is a small value type and may be copied to
// obtain an independent lookahead cursor (oracle policies rely on this).
type Player struct {
	pr  *Profile
	pos float64 // program position in instructions
	end bool
	// chunk1 is one more than the jitter chunk whose factors rj/pj hold (0:
	// none yet). Jitter hashes the benchmark name, and a player takes many
	// steps and Behavior reads within one chunk.
	chunk1 uint64
	rj, pj float64
}

// NewPlayer returns a player positioned at the start of the program.
func NewPlayer(pr *Profile) *Player { return &Player{pr: pr} }

// Clone returns an independent copy (same position).
func (p *Player) Clone() *Player {
	c := *p
	return &c
}

// Position returns the committed-instruction position.
func (p *Player) Position() float64 { return p.pos }

// Completed reports whether the program has reached its TotalInstructions.
func (p *Player) Completed() bool { return p.end }

// periodPos returns the position within the current schedule period.
func (p *Player) periodPos() float64 {
	period := p.pr.PeriodInstr
	return p.pos - float64(uint64(p.pos/period))*period
}

// chunkJitter returns the jitter factors of the given chunk, hashing only
// when the chunk differs from the cached one.
func (p *Player) chunkJitter(chunk uint64) (rate, pw float64) {
	if p.chunk1 != chunk+1 {
		p.rj, p.pj = p.pr.jitter(chunk)
		p.chunk1 = chunk + 1
	}
	return p.rj, p.pj
}

// Phase returns the index of the phase at the current position.
func (p *Player) Phase() int {
	ph, _ := p.pr.phaseEnd(p.periodPos())
	return ph
}

// Behavior returns the (jittered) instantaneous power and rate at the
// current position under mode m.
func (p *Player) Behavior(m modes.Mode) (powerW, ratePerSec float64) {
	ph, _ := p.pr.phaseEnd(p.periodPos())
	b := &p.pr.Behavior[m][ph]
	rj, pj := p.chunkJitter(uint64(p.pos / jitterChunk))
	return b.PowerW * pj, b.RatePerSec * rj
}

// Advance runs the player for `seconds` of wall time under mode m and
// returns the energy consumed (joules) and instructions committed. When the
// program completes mid-interval the player idles for the remainder at the
// mode's gated floor power (zero here: the core is considered released).
func (p *Player) Advance(m modes.Mode, seconds float64) (energyJ, instr float64) {
	if !p.pr.Plan.Valid(m) {
		panic(fmt.Sprintf("trace: invalid mode %d", m))
	}
	behavior := p.pr.Behavior[m]
	total := float64(p.pr.Spec.TotalInstructions)
	remaining := seconds
	for remaining > 1e-15 && !p.end {
		posInPeriod := p.periodPos()
		ph, phaseEnd := p.pr.phaseEnd(posInPeriod)
		b := &behavior[ph]
		chunk := uint64(p.pos / jitterChunk)
		rj, pj := p.chunkJitter(chunk)
		rate := b.RatePerSec * rj
		pw := b.PowerW * pj

		// Distance to the nearest behaviour boundary: phase edge, jitter
		// chunk edge, or program completion.
		toPhase := phaseEnd - posInPeriod
		toChunk := (float64(chunk)+1)*jitterChunk - p.pos
		toEnd := total - p.pos
		dist := toPhase
		if toChunk < dist {
			dist = toChunk
		}
		if toEnd < dist {
			dist = toEnd
		}
		// A minimum step of one instruction guarantees progress: at program
		// positions around 1e8 a fractional boundary remainder can be below
		// one ulp and would otherwise never be consumed.
		if dist < 1 {
			dist = 1
		}
		dt := dist / rate
		if dt > remaining {
			dt = remaining
		}
		energyJ += pw * dt
		instr += rate * dt
		p.pos += rate * dt
		remaining -= dt
		if p.pos >= total {
			p.end = true
		}
	}
	return energyJ, instr
}

// Peek returns the energy and instructions a hypothetical interval of
// `seconds` under mode m would produce, without moving the player. Oracle
// policies use this as their future knowledge (§5.6).
func (p *Player) Peek(m modes.Mode, seconds float64) (energyJ, instr float64) {
	c := p.Clone()
	return c.Advance(m, seconds)
}

// Library memoizes benchmark profiles for a fixed (config, model, plan)
// tuple. Safe for concurrent use.
type Library struct {
	cfg   config.Config
	model power.Model
	plan  modes.Plan

	mu       sync.Mutex
	profiles map[string]*Profile
	disk     *DiskCache
}

// NewLibrary builds an empty profile cache.
func NewLibrary(cfg config.Config, model power.Model, plan modes.Plan) *Library {
	return &Library{cfg: cfg, model: model, plan: plan, profiles: make(map[string]*Profile)}
}

// Plan returns the library's mode plan.
func (l *Library) Plan() modes.Plan { return l.plan }

// Config returns the library's configuration.
func (l *Library) Config() config.Config { return l.cfg }

// Model returns the library's power model.
func (l *Library) Model() power.Model { return l.model }

// Profile returns the (cached) profile for the named benchmark.
func (l *Library) Profile(name string) (*Profile, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pr, ok := l.profiles[name]; ok {
		return pr, nil
	}
	if l.disk != nil {
		pr, err := l.disk.Load(l.cfg, l.model, l.plan, name)
		if err != nil {
			return nil, err
		}
		if pr != nil {
			l.profiles[name] = pr
			return pr, nil
		}
	}
	spec, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	pr, err := Characterize(l.cfg, l.model, l.plan, spec)
	if err != nil {
		return nil, err
	}
	if l.disk != nil {
		if err := l.disk.Store(l.cfg, l.model, pr); err != nil {
			return nil, fmt.Errorf("trace: persisting %s: %w", name, err)
		}
	}
	l.profiles[name] = pr
	return pr, nil
}

// Players builds fresh players for a benchmark combination, all in one
// backing slab.
func (l *Library) Players(combo workload.Combo) ([]*Player, error) {
	out := make([]*Player, combo.Cores())
	slab := make([]Player, combo.Cores())
	for i, name := range combo.Benchmarks {
		pr, err := l.Profile(name)
		if err != nil {
			return nil, err
		}
		slab[i] = Player{pr: pr}
		out[i] = &slab[i]
	}
	return out, nil
}
