package trace

import (
	"math"
	"math/rand"
	"testing"

	"gpm/internal/modes"
)

// refPlayer is a frozen copy of the Player before it cached its chunk's
// jitter factors: it re-hashes the benchmark name at every step, re-sums
// PhaseInstr for the phase end, and copies each PhaseBehavior. The
// equivalence test below pins the cached Player bit-identical to it.
type refPlayer struct {
	pr  *Profile
	pos float64
	end bool
}

func refPhaseAt(pr *Profile, posInPeriod float64) int {
	var acc float64
	for i, l := range pr.PhaseInstr {
		acc += l
		if posInPeriod < acc {
			return i
		}
	}
	return len(pr.PhaseInstr) - 1
}

func (p *refPlayer) Behavior(m modes.Mode) (powerW, ratePerSec float64) {
	period := p.pr.PeriodInstr
	pos := p.pos - float64(uint64(p.pos/period))*period
	b := p.pr.Behavior[m][refPhaseAt(p.pr, pos)]
	rj, pj := p.pr.jitter(uint64(p.pos / jitterChunk))
	return b.PowerW * pj, b.RatePerSec * rj
}

func (p *refPlayer) Advance(m modes.Mode, seconds float64) (energyJ, instr float64) {
	remaining := seconds
	for remaining > 1e-15 && !p.end {
		period := p.pr.PeriodInstr
		posInPeriod := p.pos - float64(uint64(p.pos/period))*period
		ph := refPhaseAt(p.pr, posInPeriod)
		b := p.pr.Behavior[m][ph]
		rj, pj := p.pr.jitter(uint64(p.pos / jitterChunk))
		rate := b.RatePerSec * rj
		pw := b.PowerW * pj
		var acc float64
		for i := 0; i <= ph; i++ {
			acc += p.pr.PhaseInstr[i]
		}
		toPhase := acc - posInPeriod
		toChunk := (float64(uint64(p.pos/jitterChunk))+1)*jitterChunk - p.pos
		toEnd := float64(p.pr.Spec.TotalInstructions) - p.pos
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
		if p.pos >= float64(p.pr.Spec.TotalInstructions) {
			p.end = true
		}
	}
	return energyJ, instr
}

func (p *refPlayer) Peek(m modes.Mode, seconds float64) (energyJ, instr float64) {
	c := *p
	return c.Advance(m, seconds)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPlayerMatchesReference drives the Player and the frozen reference
// through the same random operation sequence — Advance with step sizes
// from sub-instruction to several jitter chunks, Behavior and Peek in every
// mode, Clone and continued stepping of the clone — on shortened programs
// that complete mid-sequence, and requires every returned float, position,
// phase and completion flag to match bit for bit. Short steps land the
// position on and just past chunk and phase edges; the run continues past
// completion.
func TestPlayerMatchesReference(t *testing.T) {
	lib := testLibrary(t)
	plan := lib.Plan()
	nm := plan.NumModes()
	for bi, bench := range []string{"gcc", "mcf", "ammp", "crafty"} {
		pr, err := lib.Profile(bench)
		if err != nil {
			t.Fatal(err)
		}
		short := *pr
		// Long enough to cross several phases and many chunks, short
		// enough to complete within the sequence.
		short.Spec.TotalInstructions = uint64(1.5*pr.PeriodInstr) + 123_457
		rng := rand.New(rand.NewSource(int64(100 + bi)))
		p := NewPlayer(&short)
		ref := &refPlayer{pr: &short}
		check := func(step int, what string, got, want [2]float64) {
			t.Helper()
			if !sameBits(got[0], want[0]) || !sameBits(got[1], want[1]) {
				t.Fatalf("%s step %d %s: got %v want %v", bench, step, what, got, want)
			}
			if !sameBits(p.Position(), ref.pos) || p.Completed() != ref.end {
				t.Fatalf("%s step %d %s: position %v/%v done %v/%v", bench, step, what,
					p.Position(), ref.pos, p.Completed(), ref.end)
			}
			if !ref.end && p.Phase() != refPhaseAt(ref.pr, ref.pos-float64(uint64(ref.pos/ref.pr.PeriodInstr))*ref.pr.PeriodInstr) {
				t.Fatalf("%s step %d %s: phase %d disagrees", bench, step, what, p.Phase())
			}
		}
		for step := 0; step < 6000 && !(p.Completed() && step > 100); step++ {
			m := modes.Mode(rng.Intn(nm))
			var sec float64
			switch rng.Intn(4) {
			case 0:
				sec = rng.Float64() * 1e-8 // a fraction of an instruction to a few
			case 1:
				sec = rng.Float64() * 50e-6
			case 2:
				sec = rng.Float64() * 500e-6 // several jitter chunks
			default:
				// Land exactly on the next chunk edge under mode m.
				_, rate := ref.Behavior(m)
				toChunk := (float64(uint64(ref.pos/jitterChunk))+1)*jitterChunk - ref.pos
				sec = toChunk / rate
			}
			switch op := rng.Intn(6); op {
			case 0:
				pw, rate := p.Behavior(m)
				rpw, rrate := ref.Behavior(m)
				check(step, "Behavior", [2]float64{pw, rate}, [2]float64{rpw, rrate})
			case 1:
				e, in := p.Peek(m, sec)
				re, rin := ref.Peek(m, sec)
				check(step, "Peek", [2]float64{e, in}, [2]float64{re, rin})
			case 2:
				// Step a clone ahead, then keep going on the original: the
				// clone carries the cache and must not disturb the original.
				c := p.Clone()
				rc := *ref
				e, in := c.Advance(m, sec)
				re, rin := rc.Advance(m, sec)
				if !sameBits(e, re) || !sameBits(in, rin) || !sameBits(c.Position(), rc.pos) {
					t.Fatalf("%s step %d Clone.Advance: got %v %v want %v %v", bench, step, e, in, re, rin)
				}
				pw, rate := c.Behavior(m)
				rpw, rrate := rc.Behavior(m)
				check(step, "Clone.Behavior", [2]float64{pw, rate}, [2]float64{rpw, rrate})
			default:
				e, in := p.Advance(m, sec)
				re, rin := ref.Advance(m, sec)
				check(step, "Advance", [2]float64{e, in}, [2]float64{re, rin})
			}
		}
		if !p.Completed() {
			t.Fatalf("%s: program did not complete within the sequence", bench)
		}
	}
}
