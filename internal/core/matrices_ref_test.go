package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"gpm/internal/modes"
	"gpm/internal/power"
)

// refMatricesInto is a frozen copy of Predictor.MatricesInto as it was
// before the per-mode factors were computed once per call: it evaluates the
// power scale, the frequency scale and the transition derating per core and
// mode. TestMatricesIntoMatchesReference holds the current code to it bit
// for bit, and BenchmarkMatricesInto times both.
func refMatricesInto(p Predictor, mx *Matrices, current modes.Vector, samples []Sample) {
	n := len(current)
	if len(samples) != n {
		panic(fmt.Sprintf("core: %d samples for %d cores", len(samples), n))
	}
	nm := p.Plan.NumModes()
	reuse := len(mx.Power) == n && len(mx.Instr) == n &&
		len(mx.flatP) == n*nm && len(mx.flatI) == n*nm &&
		(n == 0 || nm == 0 || (len(mx.Power[0]) == nm && len(mx.Instr[0]) == nm &&
			&mx.Power[0][0] == &mx.flatP[0] && &mx.Instr[0][0] == &mx.flatI[0]))
	if !reuse {
		backing := make([]float64, 2*n*nm)
		mx.flatP = backing[: n*nm : n*nm]
		mx.flatI = backing[n*nm:]
		mx.Power = make([][]float64, n)
		mx.Instr = make([][]float64, n)
		for c := 0; c < n; c++ {
			mx.Power[c] = mx.flatP[c*nm : (c+1)*nm : (c+1)*nm]
			mx.Instr[c] = mx.flatI[c*nm : (c+1)*nm : (c+1)*nm]
		}
	}
	fresh := !reuse || len(mx.gens) != n || len(mx.lastS) != n || len(mx.lastM) != n
	if fresh {
		mx.genID = matricesGenID.Add(1)
		mx.gen = 0
		mx.gens = make([]uint64, n)
		mx.lastS = make([]Sample, n)
		mx.lastM = make(modes.Vector, n)
	}
	newGen := mx.gen + 1
	changed := false
	for c := 0; c < n; c++ {
		if !fresh && samples[c] == mx.lastS[c] && current[c] == mx.lastM[c] {
			continue
		}
		mx.gens[c] = newGen
		mx.lastS[c] = samples[c]
		mx.lastM[c] = current[c]
		changed = true
		if samples[c].Done {
			for m := 0; m < nm; m++ {
				mx.Power[c][m] = 0
				mx.Instr[c][m] = 0
			}
			continue
		}
		cur := current[c]
		pTurbo := samples[c].PowerW / p.scale(cur)
		iTurbo := samples[c].Instr / p.Plan.FreqScale(cur)
		for m := 0; m < nm; m++ {
			mode := modes.Mode(m)
			mx.Power[c][m] = pTurbo * p.scale(mode)
			instr := iTurbo * p.Plan.FreqScale(mode)
			if p.DerateTransitions && mode != cur && p.ExploreSeconds > 0 {
				tr := p.Plan.TransitionTime(cur, mode).Seconds()
				instr *= p.ExploreSeconds / (p.ExploreSeconds + tr)
			}
			mx.Instr[c][m] = instr
		}
	}
	if changed {
		mx.gen = newGen
	}
}

// matricesDiff reports the first difference between two filled matrices:
// any entry's bits, a core's generation stamp or the overall generation.
func matricesDiff(got, want *Matrices) error {
	if len(got.Power) != len(want.Power) {
		return fmt.Errorf("%d rows, want %d", len(got.Power), len(want.Power))
	}
	for c := range want.Power {
		for m := range want.Power[c] {
			if math.Float64bits(got.Power[c][m]) != math.Float64bits(want.Power[c][m]) ||
				math.Float64bits(got.Instr[c][m]) != math.Float64bits(want.Instr[c][m]) {
				return fmt.Errorf("core %d mode %d: (%v, %v), want (%v, %v)", c, m,
					got.Power[c][m], got.Instr[c][m], want.Power[c][m], want.Instr[c][m])
			}
		}
	}
	gg, gen, _ := got.Generations()
	wg, wgen, _ := want.Generations()
	if gen != wgen {
		return fmt.Errorf("generation %d, want %d", gen, wgen)
	}
	for c := range wg {
		if gg[c] != wg[c] {
			return fmt.Errorf("core %d stamped at generation %d, want %d", c, gg[c], wg[c])
		}
	}
	return nil
}

// matrixInputs draws a mode vector over every mode and samples with some
// cores Done, one non-finite reading, and a share of cores (keep) that
// repeat their previous sample and mode, so reused matrices skip them.
func matrixInputs(rng *rand.Rand, nm int, cur modes.Vector, s []Sample, keep float64) {
	for c := range cur {
		if rng.Float64() < keep {
			continue
		}
		cur[c] = modes.Mode(rng.Intn(nm))
		s[c] = Sample{PowerW: 5 + 25*rng.Float64(), Instr: 1e5 + 2e6*rng.Float64(), Done: rng.Intn(9) == 0}
	}
	if len(s) > 3 && rng.Intn(4) == 0 {
		s[rng.Intn(len(s))].PowerW = math.NaN()
	}
}

// TestMatricesIntoMatchesReference holds MatricesInto to the frozen per-core
// loop: 3- and 7-mode plans, derating on and off (and on with a zero
// explore interval), the cubic law and a leakage-aware PowerScale, Done
// cores and every current mode, matrices reused across calls (rows kept and
// refilled, widths changing) and fresh ones, and the same through a
// HistoryPredictor, whose adjusted samples feed the reference.
func TestMatricesIntoMatchesReference(t *testing.T) {
	model := power.Default()
	for _, plan := range []modes.Plan{plan(), modes.Linear(7, 0.55, 1.3, 0.01)} {
		for _, scaled := range []bool{false, true} {
			for _, derate := range []struct {
				on      bool
				explore float64
			}{{false, 500e-6}, {true, 500e-6}, {true, 0}} {
				p := Predictor{Plan: plan, ExploreSeconds: derate.explore, DerateTransitions: derate.on}
				if scaled {
					p.PowerScale = func(m modes.Mode) float64 { return model.ScaleLaw(plan, m) }
				}
				name := fmt.Sprintf("modes=%d/scaled=%v/derate=%v/explore=%v", plan.NumModes(), scaled, derate.on, derate.explore)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(plan.NumModes())))
					nm := plan.NumModes()
					hist := NewHistoryPredictor(p, HistoryConfig{})
					twin := NewHistoryPredictor(p, HistoryConfig{})
					var got, want, hGot, hWant, scratch Matrices
					for call := 0; call < 40; call++ {
						n := 37
						if call >= 30 {
							n = 12 + call%3 // widths change: relaid matrices
						}
						cur, s := make(modes.Vector, n), make([]Sample, n)
						matrixInputs(rng, nm, cur, s, 0)
						if call > 0 && call < 30 {
							// Keep most cores from the previous call.
							copy(cur, want.lastM)
							copy(s, want.lastS)
							matrixInputs(rng, nm, cur, s, 0.7)
						}
						p.MatricesInto(&got, cur, s)
						refMatricesInto(p, &want, cur, s)
						if err := matricesDiff(&got, &want); err != nil {
							t.Fatalf("call %d, reused: %v", call, err)
						}
						var fresh, freshRef Matrices
						p.MatricesInto(&fresh, cur, s)
						refMatricesInto(p, &freshRef, cur, s)
						if err := matricesDiff(&fresh, &freshRef); err != nil {
							t.Fatalf("call %d, fresh: %v", call, err)
						}
						hist.MatricesInto(&hGot, cur, s)
						twin.MatricesInto(&scratch, cur, s)
						refMatricesInto(p, &hWant, cur, twin.scratch[:n])
						if err := matricesDiff(&hGot, &hWant); err != nil {
							t.Fatalf("call %d, history: %v", call, err)
						}
					}
					if st := hist.Stats(); st.Lookups == 0 {
						t.Fatal("history predictor made no table lookups")
					}
				})
			}
		}
	}
}

// BenchmarkMatricesInto times one MatricesInto call into reused matrices
// with the experiment predictor's settings (leakage-aware power scale,
// derating on), and then the frozen per-core loop over the same inputs.
// Iterations alternate between two sample sets that differ on every core,
// so every row is refilled. The row reports each side's mean as
// matrices-ns/op and ref-ns/op; `make bench-check` gates their ratio at
// 1024 cores.
func BenchmarkMatricesInto(b *testing.B) {
	plan := plan()
	model := power.Default()
	p := Predictor{
		Plan:              plan,
		PowerScale:        func(m modes.Mode) float64 { return model.ScaleLaw(plan, m) },
		ExploreSeconds:    500e-6,
		DerateTransitions: true,
	}
	for _, n := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			cur := make(modes.Vector, n)
			var sets [2][]Sample
			for i := range sets {
				sets[i] = make([]Sample, n)
				for c := range cur {
					cur[c] = modes.Mode(c % plan.NumModes())
					sets[i][c] = Sample{PowerW: 5 + 25*rng.Float64(), Instr: 1e5 + 2e6*rng.Float64()}
				}
			}
			var mx, ref Matrices
			p.MatricesInto(&mx, cur, sets[1])
			refMatricesInto(p, &ref, cur, sets[1])
			var matNS, refNS time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := sets[i%2]
				t0 := time.Now()
				p.MatricesInto(&mx, cur, s)
				t1 := time.Now()
				refMatricesInto(p, &ref, cur, s)
				matNS += t1.Sub(t0)
				refNS += time.Since(t1)
			}
			b.ReportMetric(float64(matNS)/float64(b.N), "matrices-ns/op")
			b.ReportMetric(float64(refNS)/float64(b.N), "ref-ns/op")
		})
	}
}
