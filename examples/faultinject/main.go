// Faultinject demonstrates the fault-injection framework and the resilient
// global power manager: at t=2 ms core 0's current sensor sticks at 0.5 W,
// so the §5.5 predictions believe the core is nearly free and MaxBIPS hands
// the whole budget to the other cores. Unguarded, the chip rides ~15% over
// its power cap for the rest of the run; guarded, the engine's guard
// cross-checks the per-core sensors against the chip-level measurement,
// repairs the lying sample, and keeps the chip at the cap. At t=8 ms core 3
// dies outright and the guard parks it, redistributing its budget share.
//
// Run with:
//
//	go run ./examples/faultinject
package main

import (
	"fmt"
	"log"
	"time"

	"gpm"
	"gpm/internal/report"
)

func main() {
	sys := gpm.NewSystem(4).ShortHorizon(16 * time.Millisecond)
	combo, err := gpm.FindWorkload("4w-ammp-mcf-crafty-art")
	if err != nil {
		log.Fatal(err)
	}

	scenario := gpm.FaultScenario{
		Seed:  42,
		Stuck: []gpm.StuckFault{{Core: 0, PowerW: 0.5, At: 2 * time.Millisecond}},
		Deaths: []gpm.CoreDeath{
			{Core: 3, At: 8 * time.Millisecond},
		},
	}
	guard := gpm.DefaultGuard()

	unguarded, base, err := gpm.RunPolicyResilient(sys, combo, gpm.MaxBIPS(), 0.75, &scenario, nil)
	if err != nil {
		log.Fatal(err)
	}
	guarded, _, err := gpm.RunPolicyResilient(sys, combo, gpm.MaxBIPS(), 0.75, &scenario, &guard)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s, budget 75%%: stuck sensor on core 0 at 2 ms, core 3 dies at 8 ms\n\n", combo.ID)

	ts := report.NewTimeSeries("chip power [W] (stuck sensor at 2 ms, core death at 8 ms)", "time →", 100)
	ts.Add("unguarded", unguarded.ChipPowerW)
	ts.Add("guarded", guarded.ChipPowerW)
	ts.Add("budget", guarded.BudgetW)
	fmt.Println(ts.String())

	show := func(name string, r *gpm.Result) {
		deg := gpm.Degradation(r.TotalInstr, base.TotalInstr)
		fmt.Printf("%-10s avg %5.1f W vs budget %5.1f W | overshoot %3d/%d intervals, worst sustained %.3g W·s | degradation %.1f%%\n",
			name, r.AvgChipPowerW(), r.BudgetW[0], r.OvershootIntervals, len(r.ChipPowerW), r.WorstOvershootWs, deg*100)
	}
	show("unguarded", unguarded)
	show("guarded", guarded)

	fmt.Printf("\nguard interventions: %d samples sanitized, %d intervals rescaled to the chip sensor,\n",
		guarded.SanitizedSamples, guarded.RescaledIntervals)
	fmt.Printf("%d emergency entries (longest recovery %v), dead cores detected: %v\n",
		guarded.EmergencyEntries, guarded.RecoveryLatency, guarded.DeadCores)
}
