package trace

import (
	"fmt"
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

// matchOps requires the Player and the reference to agree bit for bit on
// Behavior in every mode, on Peek, and on a clone stepped ahead, and then
// on their positions, phases and completion flags.
func matchOps(t *testing.T, what string, p *Player, ref *refPlayer, nm int) {
	t.Helper()
	for m := modes.Mode(0); int(m) < nm; m++ {
		pw, rate := p.Behavior(m)
		rpw, rrate := ref.Behavior(m)
		if !sameBits(pw, rpw) || !sameBits(rate, rrate) {
			t.Fatalf("%s: Behavior(%d) = %v %v, want %v %v", what, m, pw, rate, rpw, rrate)
		}
		for _, sec := range []float64{3e-9, 40e-6} {
			e, in := p.Peek(m, sec)
			re, rin := ref.Peek(m, sec)
			if !sameBits(e, re) || !sameBits(in, rin) {
				t.Fatalf("%s: Peek(%d, %v) = %v %v, want %v %v", what, m, sec, e, in, re, rin)
			}
		}
		c, rc := p.Clone(), *ref
		e, in := c.Advance(m, 120e-6)
		re, rin := rc.Advance(m, 120e-6)
		if !sameBits(e, re) || !sameBits(in, rin) || !sameBits(c.Position(), rc.pos) {
			t.Fatalf("%s: Clone.Advance(%d) = %v %v at %v, want %v %v at %v", what, m, e, in, c.Position(), re, rin, rc.pos)
		}
	}
	period := ref.pr.PeriodInstr
	if !sameBits(p.Position(), ref.pos) || p.Completed() != ref.end ||
		p.Phase() != refPhaseAt(ref.pr, ref.pos-float64(uint64(ref.pos/period))*period) {
		t.Fatalf("%s: position %v/%v done %v/%v phase %d", what, p.Position(), ref.pos, p.Completed(), ref.end, p.Phase())
	}
}

// stepBoth advances the Player and the reference alike and requires the
// same energy and instructions.
func stepBoth(t *testing.T, what string, p *Player, ref *refPlayer, m modes.Mode, sec float64) {
	t.Helper()
	e, in := p.Advance(m, sec)
	re, rin := ref.Advance(m, sec)
	if !sameBits(e, re) || !sameBits(in, rin) || !sameBits(p.Position(), ref.pos) {
		t.Fatalf("%s: Advance(%d, %v) = %v %v to %v, want %v %v to %v", what, m, sec, e, in, p.Position(), re, rin, ref.pos)
	}
}

// landingStep finds, by bisection on a copy of ref, a step under mode m
// that ends at a position ≥ target with none between it and target, and
// returns it with that position.
func landingStep(ref *refPlayer, m modes.Mode, target float64) (sec, pos float64) {
	end := func(s float64) float64 {
		c := *ref
		c.Advance(m, s)
		return c.pos
	}
	_, rate := ref.Behavior(m)
	s0 := (target - ref.pos) / rate
	lo, hi := s0*(1-1e-6), s0*(1+1e-6)
	for i := 0; i < 200 && math.Nextafter(lo, hi) != hi; i++ {
		if mid := lo + (hi-lo)/2; end(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, end(hi)
}

// playerBoundaryWalk steps the Player and the reference onto period and
// chunk ends: exactly onto each end, one and two ulps below it (where a
// quotient can round up to the next index), into the 2⁻⁴⁰ guard band below
// it, and just below the band. Each walk starts 700
// instructions short of the end with a small step, so the Player's caches
// were filled before the landing and the next chunk's factors are
// prefetched, and it checks Behavior, Peek and Clone after the landing,
// then takes one step across several chunks. The ends are the first,
// third and fifth period ends and four chunk ends, one of them the first
// after the first period end. The profiles are gcc, mcf and a copy of gcc
// with a short period (phases scaled by 0.0173), where that step also
// crosses a period end and float64(3)·PeriodInstr is an inexact product.
func playerBoundaryWalk(t *testing.T) {
	lib := testLibrary(t)
	nm := lib.Plan().NumModes()
	gcc, err := lib.Profile("gcc")
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := lib.Profile("mcf")
	if err != nil {
		t.Fatal(err)
	}
	// The short copy's first phase is nudged up an ulp at a time until the
	// period's third end, float64(3)·PeriodInstr, is an inexact product.
	short := *gcc
	short.PhaseInstr = make([]float64, len(gcc.PhaseInstr))
	for i, l := range gcc.PhaseInstr {
		short.PhaseInstr[i] = l * 0.0173
	}
	for i := 0; ; i++ {
		short.PeriodInstr = 0
		for _, l := range short.PhaseInstr {
			short.PeriodInstr += l
		}
		if math.FMA(3, short.PeriodInstr, -3*short.PeriodInstr) != 0 {
			break
		}
		if i == 64 {
			t.Fatal("short period: no inexact third end within 64 nudges")
		}
		short.PhaseInstr[0] = math.Nextafter(short.PhaseInstr[0], math.Inf(1))
	}
	exact, banded, hits := 0, 0, 0
	for _, pr := range []*Profile{gcc, mcf, &short} {
		var ends []float64
		for _, k := range []float64{1, 3, 5} {
			ends = append(ends, k*pr.PeriodInstr)
		}
		for _, c := range []float64{1, 2, 7, math.Ceil(pr.PeriodInstr / jitterChunk)} {
			ends = append(ends, c*jitterChunk)
		}
		for bi, b := range ends {
			targets := []struct {
				name string
				pos  float64
			}{
				{"on end", b},
				{"an ulp below", math.Nextafter(b, 0)},
				{"two ulps below", math.Nextafter(math.Nextafter(b, 0), 0)},
				{"in guard band", b * (1 - 0x1p-41)},
				{"below band", math.Nextafter(b*guardBand, 0)},
			}
			for _, tg := range targets {
				name, target := tg.name, tg.pos
				m := modes.Mode(bi % nm)
				what := fmt.Sprintf("%s end %d (%v) %s", pr.Spec.Name, bi, b, name)
				if pr == &short {
					what = "short-period " + what
				}
				p := &Player{pr: pr, pos: b - 700}
				ref := &refPlayer{pr: pr, pos: b - 700}
				stepBoth(t, what+": first step", p, ref, m, 1e-9)
				sec, pos := landingStep(ref, m, target)
				stepBoth(t, what+": landing", p, ref, m, sec)
				switch {
				case pos == b:
					exact++
				case pos >= b*guardBand && pos < b:
					banded++
				}
				if pos == target {
					hits++
				}
				matchOps(t, what+": after landing", p, ref, nm)
				chunks, periods := uint64(ref.pos/jitterChunk), uint64(ref.pos/pr.PeriodInstr)
				long := 3.2 * jitterChunk
				if pr == &short {
					long = max(long, 1.2*pr.PeriodInstr)
				}
				lm := modes.Mode((bi + 1) % nm)
				_, rate := ref.Behavior(lm)
				stepBoth(t, what+": long step", p, ref, lm, long/rate)
				if uint64(ref.pos/jitterChunk) < chunks+2 {
					t.Fatalf("%s: long step crossed fewer than two chunk ends", what)
				}
				if pr == &short && uint64(ref.pos/pr.PeriodInstr) == periods {
					t.Fatalf("%s: long step crossed no period end", what)
				}
				matchOps(t, what+": after long step", p, ref, nm)
			}
		}
	}
	// A landing on a given float is not guaranteed for every end (105 of
	// 105 reach theirs today); the walk must still reach most of them.
	t.Logf("%d landings on an end, %d in a guard band, %d on their target", exact, banded, hits)
	if exact < 14 || banded < 42 {
		t.Fatalf("landed exactly on %d ends and in %d guard bands, want ≥ 14 and ≥ 42", exact, banded)
	}
}

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
	t.Run("boundaries", playerBoundaryWalk)
}
