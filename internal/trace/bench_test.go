package trace

import (
	"fmt"
	"testing"
	"time"

	"gpm/internal/modes"
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
