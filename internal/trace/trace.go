// Package trace implements the paper's trace-based methodology (§3.1): the
// core simulator characterizes each benchmark under every power mode
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
	"runtime"
	"sync"

	"gpm/internal/bpred"
	"gpm/internal/cache"
	"gpm/internal/config"
	"gpm/internal/modes"
	"gpm/internal/pool"
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

// Characterize runs the core simulator over every phase of spec under every
// mode of plan and assembles a Profile: the single-threaded
// characterization step of §3.1. Each phase runs once, over a fresh
// generator, private caches and predictor, with one timing lane per mode in
// lockstep (uarch.Measure): a mode changes only timing here, never the
// stream, a cache outcome or a prediction (DESIGN.md §10.4). The phases
// share no state, so they run concurrently on up to GOMAXPROCS goroutines,
// each writing only its own Behavior[m][ph]; the profile is the same for
// every worker count.
func Characterize(cfg config.Config, model power.Model, plan modes.Plan, spec workload.Spec) (*Profile, error) {
	return characterize(cfg, model, plan, spec, runtime.GOMAXPROCS(0))
}

// characterize is Characterize with its phases on at most `workers`
// goroutines.
func characterize(cfg config.Config, model power.Model, plan modes.Plan, spec workload.Spec, workers int) (*Profile, error) {
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
	scales := make([]float64, nm)
	pr.Behavior = make([][]PhaseBehavior, nm)
	for m := range pr.Behavior {
		scales[m] = plan.FreqScale(modes.Mode(m))
		pr.Behavior[m] = make([]PhaseBehavior, len(spec.Phases))
	}
	err := pool.ForEach(workers, len(spec.Phases), func(ph int) error {
		gen := workload.NewGenerator(spec, ph, cfg.Sim.Seed)
		l2 := cache.NewSharedL2(cfg.Mem.L2, cfg.Mem.L2Banks, cfg.Mem.L2BusCyclesPerAccess)
		hier := cache.NewHierarchy(cfg.Mem, l2)
		pred := bpred.New(cfg.Core.BimodalEntries, cfg.Core.GshareEntries, cfg.Core.SelectorEntries, cfg.Core.GshareHistory)
		// Establish steady-state cache residency before sampling: touch the
		// benchmark's data regions once, as a real run would have long
		// before the sampled window. Regions larger than the hierarchy stay
		// miss-dominated regardless.
		warmRegion(hier, workload.HotBase, spec.HotSetBytes, cfg.Mem.L1D.BlockSize)
		warmRegion(hier, workload.ColdBase, spec.ColdSetBytes, cfg.Mem.L1D.BlockSize)
		warmCode(hier, workload.CodeBase, spec.CodeFootprint, cfg.Mem.L1I.BlockSize)
		acts := uarch.Measure(cfg, gen, hier, pred, scales, uint64(cfg.Sim.WarmupInstructions), uint64(cfg.Sim.SampleInstructions))
		for m, act := range acts {
			b := PhaseBehavior{
				PowerW:     model.CorePower(act, plan, modes.Mode(m)),
				IPC:        act.IPC(),
				RatePerSec: act.IPC() * scales[m] * cfg.Chip.NominalFreqHz,
				Activity:   act,
			}
			if b.RatePerSec <= 0 {
				return fmt.Errorf("trace: %s phase %d mode %d measured zero rate", spec.Name, ph, m)
			}
			pr.Behavior[m][ph] = b
		}
		return nil
	})
	if err != nil {
		return nil, err
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

// guardBand scales a period or chunk boundary down to the position below
// which a Player's cached index is still the exact quotient's (Player.sync).
const guardBand = 1 - 0x1p-40

// Player replays a profile; it is a small value type and may be copied to
// obtain an independent lookahead cursor (oracle policies rely on this).
//
// Besides its position, a player caches what that position maps to: the
// schedule period, the phase within it and the jitter chunk with its factors
// and the next chunk's. Each cache holds while the position stays below a
// limit a little under the next boundary, so a step divides only once, for
// its duration (DESIGN.md §10.3).
type Player struct {
	pr  *Profile
	pos float64 // program position in instructions
	// base is float64(k)·PeriodInstr for the period index k of pos, and
	// perLim the guard below float64(k+1)·PeriodInstr; 0 means not cached.
	base, perLim float64
	// phEnd is where the cached phase ph ends within the period, the same
	// float sum the phase scan reaches.
	phEnd float64
	// chunk is the cached jitter chunk and chEnd its end, (chunk+1)·
	// jitterChunk, exact in floats (0: not cached); rj/pj are the chunk's
	// jitter factors and nrj/npj those of the chunk after it.
	chunk    uint64
	chEnd    float64
	rj, pj   float64
	nrj, npj float64
	ph       int32
	end      bool
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

// sync brings the period, phase and chunk caches up to the current
// position. Below a cache's limit, uint64(pos/d) cannot have moved: a
// rounding error of at most 2⁻⁵³ per operation cannot close the 2⁻⁴⁰ gap,
// correctly rounded division is monotone, and pos never decreases (a step
// adds rate·dt ≥ 0 or turns pos NaN, which fails every comparison). Within
// one period the offset only grows, so the cached phase stays the scan's
// answer until the offset reaches its end.
func (p *Player) sync() {
	pos := p.pos
	if !(pos < p.perLim && pos >= p.base) {
		p.enterPeriod()
	} else if !(pos-p.base < p.phEnd) {
		p.enterPhase(pos - p.base)
	}
	if !(pos < p.chEnd*guardBand && pos >= p.chEnd-jitterChunk) {
		p.enterChunk()
	}
}

// enterPeriod recomputes the period cache, and the phase, at pos.
func (p *Player) enterPeriod() {
	period := p.pr.PeriodInstr
	k := uint64(p.pos / period)
	p.base = float64(k) * period
	p.perLim = float64(k+1) * period * guardBand
	p.enterPhase(p.pos - p.base)
}

// enterPhase rescans the phase at the given offset within the period.
func (p *Player) enterPhase(posInPeriod float64) {
	ph, end := p.pr.phaseEnd(posInPeriod)
	p.ph, p.phEnd = int32(ph), end
}

// enterChunk recomputes the chunk cache at pos. Steps never cross a chunk
// end, so pos nearly always lies in the chunk after the cached one: then
// neither the chunk nor its end needs a division (chunk ends are whole
// multiples of jitterChunk, exact in floats, so pos ≥ chEnd puts the
// quotient at chunk+1 or above), and its factors were hashed when the
// cached chunk was entered, off the dependency chain of the steps since.
func (p *Player) enterChunk() {
	pos := p.pos
	if p.chEnd != 0 && pos >= p.chEnd && pos < (p.chEnd+jitterChunk)*guardBand {
		p.chunk++
		p.chEnd += jitterChunk
		p.rj, p.pj = p.nrj, p.npj
	} else {
		p.chunk = uint64(pos / jitterChunk)
		p.chEnd = (float64(p.chunk) + 1) * jitterChunk
		p.rj, p.pj = p.pr.jitter(p.chunk)
	}
	p.nrj, p.npj = p.pr.jitter(p.chunk + 1)
}

// Phase returns the index of the phase at the current position.
func (p *Player) Phase() int {
	p.sync()
	return int(p.ph)
}

// Behavior returns the (jittered) instantaneous power and rate at the
// current position under mode m.
func (p *Player) Behavior(m modes.Mode) (powerW, ratePerSec float64) {
	p.sync()
	b := &p.pr.Behavior[m][p.ph]
	return b.PowerW * p.pj, b.RatePerSec * p.rj
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
		p.sync()
		posInPeriod := p.pos - p.base
		b := &behavior[p.ph]
		rate := b.RatePerSec * p.rj
		pw := b.PowerW * p.pj

		// Distance to the nearest behaviour boundary: phase edge, jitter
		// chunk edge, or program completion.
		toPhase := p.phEnd - posInPeriod
		toChunk := p.chEnd - p.pos
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
