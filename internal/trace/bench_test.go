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

// BenchmarkPlayerDelta times one 50 µs delta over N players, the step the
// trace substrate takes for every core every delta, and then the frozen
// refPlayer over the same steps. The players cycle through four profiles,
// memory- and CPU-bound alike. Core c runs mode (c + i/10) mod 3 at
// iteration i, so modes change every explore interval of ten deltas. Both
// sides restart any player whose program is near its end, so every
// iteration steps a running program whatever b.N is. The row reports each
// side's mean as player-ns/op and ref-ns/op; `make bench-check` gates their
// ratio at 1024 cores, where host noise lands on both sides alike.
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
			for c := range players {
				pr := profiles[c%len(profiles)]
				players[c] = Player{pr: pr}
				refs[c] = refPlayer{pr: pr}
			}
			var playerNS, refNS time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := range players {
					// A delta commits at most a few hundred thousand
					// instructions; restart well before the end.
					if players[c].pos > 0.9*float64(players[c].pr.Spec.TotalInstructions) {
						players[c] = Player{pr: players[c].pr}
						refs[c] = refPlayer{pr: refs[c].pr}
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
				playerNS += t1.Sub(t0)
				refNS += time.Since(t1)
			}
			b.ReportMetric(float64(playerNS)/float64(b.N), "player-ns/op")
			b.ReportMetric(float64(refNS)/float64(b.N), "ref-ns/op")
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
