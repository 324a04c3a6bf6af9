package trace

import (
	"fmt"
	"testing"
	"time"

	"gpm/internal/config"
	"gpm/internal/modes"
	"gpm/internal/power"
	"gpm/internal/workload"
)

// chunkPlayer is a frozen copy of the Player before it cached its period,
// phase and chunk bounds: it caches only its chunk's jitter factors, and
// every step divides for the period, rescans the phases and divides for
// the chunk. It is BenchmarkPlayerDelta's second reference, the one
// `make bench-check` gates the Player against: refPlayer re-hashes the
// jitter every step, so a Player that lost half its gain over this one
// would still read well under refPlayer.
type chunkPlayer struct {
	pr     *Profile
	pos    float64
	end    bool
	chunk1 uint64 // one more than the chunk rj/pj belong to (0: none)
	rj, pj float64
}

func (p *chunkPlayer) periodPos() float64 {
	period := p.pr.PeriodInstr
	return p.pos - float64(uint64(p.pos/period))*period
}

func (p *chunkPlayer) chunkJitter(chunk uint64) (rate, pw float64) {
	if p.chunk1 != chunk+1 {
		p.rj, p.pj = p.pr.jitter(chunk)
		p.chunk1 = chunk + 1
	}
	return p.rj, p.pj
}

func (p *chunkPlayer) Advance(m modes.Mode, seconds float64) (energyJ, instr float64) {
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

// BenchmarkPlayerDelta times one 50 µs delta over N players, the step the
// trace substrate takes for every core every delta, and then two frozen
// references over the same steps: refPlayer and chunkPlayer. The players
// cycle through four profiles, memory- and CPU-bound alike. Core c runs
// mode (c + i/10) mod 3 at iteration i, so modes change every explore
// interval of ten deltas. Every side restarts any player whose program is
// near its end, so every iteration steps a running program whatever b.N
// is. The row reports each side's mean as player-ns/op, ref-ns/op and
// chunk-ns/op; `make bench-check` gates player-ns/op against chunk-ns/op
// at 1024 cores, where host noise lands on every side alike.
func BenchmarkPlayerDelta(b *testing.B) {
	lib := testLibrary(b)
	var profiles []*Profile
	for _, name := range []string{"ammp", "mcf", "crafty", "gcc"} {
		pr, err := lib.Profile(name)
		if err != nil {
			b.Fatal(err)
		}
		profiles = append(profiles, pr)
	}
	nm := lib.Plan().NumModes()
	for _, n := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			players := make([]Player, n)
			refs := make([]refPlayer, n)
			chunks := make([]chunkPlayer, n)
			for c := range players {
				pr := profiles[c%len(profiles)]
				players[c] = Player{pr: pr}
				refs[c] = refPlayer{pr: pr}
				chunks[c] = chunkPlayer{pr: pr}
			}
			var playerNS, refNS, chunkNS time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := range players {
					// A delta commits at most a few hundred thousand
					// instructions; restart well before the end.
					if players[c].pos > 0.9*float64(players[c].pr.Spec.TotalInstructions) {
						players[c] = Player{pr: players[c].pr}
						refs[c] = refPlayer{pr: refs[c].pr}
						chunks[c] = chunkPlayer{pr: chunks[c].pr}
					}
				}
				t0 := time.Now()
				for c := range players {
					players[c].Advance(modes.Mode((c+i/10)%nm), 50e-6)
				}
				t1 := time.Now()
				for c := range refs {
					refs[c].Advance(modes.Mode((c+i/10)%nm), 50e-6)
				}
				t2 := time.Now()
				for c := range chunks {
					chunks[c].Advance(modes.Mode((c+i/10)%nm), 50e-6)
				}
				playerNS += t1.Sub(t0)
				refNS += t2.Sub(t1)
				chunkNS += time.Since(t2)
			}
			b.ReportMetric(float64(playerNS)/float64(b.N), "player-ns/op")
			b.ReportMetric(float64(refNS)/float64(b.N), "ref-ns/op")
			b.ReportMetric(float64(chunkNS)/float64(b.N), "chunk-ns/op")
		})
	}
}

// BenchmarkCharacterize characterizes all twelve benchmarks under the
// default plan with Characterize, and then with the frozen
// refCharacterize, every iteration, at smallSample's warm-up and sample so
// a row runs in well under a second. The row reports each side's mean as
// char-ns/op and ref-ns/op; `make bench-check` gates their ratio, which
// reads about 1 when every mode runs its own front again, and the row's
// allocs/op, both sides' together.
func BenchmarkCharacterize(b *testing.B) {
	cfg := smallSample(config.Default(4))
	plan := modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
	model := power.Default()
	var specs []workload.Spec
	for _, name := range workload.Names() {
		specs = append(specs, workload.MustLookup(name))
	}
	var charNS, refNS time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for _, spec := range specs {
			if _, err := Characterize(cfg, model, plan, spec); err != nil {
				b.Fatal(err)
			}
		}
		t1 := time.Now()
		for _, spec := range specs {
			if _, err := refCharacterize(cfg, model, plan, spec); err != nil {
				b.Fatal(err)
			}
		}
		charNS += t1.Sub(t0)
		refNS += time.Since(t1)
	}
	b.ReportMetric(float64(charNS)/float64(b.N), "char-ns/op")
	b.ReportMetric(float64(refNS)/float64(b.N), "ref-ns/op")
}
