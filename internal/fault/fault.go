// Package fault is a deterministic, seed-driven fault injector for the
// sensor/sample path of the CMP simulator. The paper's global manager (§2)
// trusts each core's current sensors and performance counters; a production
// manager cannot. This package models the failure taxonomy a resilient
// manager must survive — multiplicative Gaussian sensor noise, calibration
// gain error and drift, sample dropout, stuck-at sensors, transient budget
// spikes, permanent core death, and thermal-sensor failure — as a pure
// Scenario value that cmpsim wires between the simulated hardware and the
// manager under test.
//
// Injection is reproducible: an Injector draws from a private PRNG seeded by
// Scenario.Seed in a fixed per-core order, so the same scenario on the same
// workload yields bit-identical Result series.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"gpm/internal/core"
)

// StuckFault pins one core's power sensor to a fixed reading from At
// onward (a stuck-at fault). PowerW may be NaN to model a sensor that
// reports garbage rather than a plausible value.
type StuckFault struct {
	Core   int
	At     time.Duration
	PowerW float64
}

// CoreDeath halts a core permanently at At: from then on it commits no
// instructions and draws no power, without ever signalling completion. The
// manager only observes the resulting all-zero samples.
type CoreDeath struct {
	Core int
	At   time.Duration
}

// BudgetSpike scales the nominal budget by Scale during [At, At+Duration) —
// a transient supply event (brownout when Scale < 1, surge headroom when
// Scale > 1) on top of the planned budget function.
type BudgetSpike struct {
	At       time.Duration
	Duration time.Duration
	Scale    float64
}

// SolverStall wedges the decision path: during [At, At+Duration) of
// simulated time, every explore-boundary decision hangs for Hang of
// wall-clock time — a wedged or grossly overloaded solver rather than a
// sensor fault. The hang is consumed by the engine's decision supervisor
// (whose watchdog deadline it is designed to trip); a run without a
// supervisor does not model it.
type SolverStall struct {
	At       time.Duration
	Duration time.Duration
	// Hang is the injected wall-clock hang per decision.
	Hang time.Duration
}

// Scenario is a declarative fault-injection plan. The zero value injects
// nothing; cmpsim treats a nil or disabled scenario as the exact seed path.
type Scenario struct {
	// Seed drives every random draw; runs with equal seeds are identical.
	Seed int64

	// PowerNoiseSigma is the relative standard deviation of multiplicative
	// Gaussian noise on each core's power reading (0.05 = 5% noise).
	PowerNoiseSigma float64
	// InstrNoiseSigma is the same for the committed-instruction counters.
	InstrNoiseSigma float64

	// PowerGain is a constant calibration error: every power reading is
	// scaled by (1 + PowerGain).
	PowerGain float64
	// PowerDriftPerSec grows the calibration gain linearly with simulated
	// time: the effective gain at time t is 1 + PowerGain + t·Drift.
	PowerDriftPerSec float64

	// DropProb is the per-sample probability that a core's observation is
	// lost for one interval. Dropped samples read zero, or NaN when
	// DropAsNaN is set.
	DropProb  float64
	DropAsNaN bool

	// Stuck lists stuck-at power-sensor faults.
	Stuck []StuckFault
	// Deaths lists permanent core failures.
	Deaths []CoreDeath
	// Spikes lists transient budget excursions.
	Spikes []BudgetSpike
	// Stalls lists wedged-solver windows (decision-path hangs).
	Stalls []SolverStall

	// ThermalFailAt, when positive, freezes the thermal governor's budget
	// reading at its last pre-failure value from that time onward (a dead
	// thermal sensor keeps reporting its final sample).
	ThermalFailAt time.Duration
}

// Enabled reports whether the scenario injects anything at all.
func (s Scenario) Enabled() bool {
	return s.PowerNoiseSigma != 0 || s.InstrNoiseSigma != 0 ||
		s.PowerGain != 0 || s.PowerDriftPerSec != 0 || s.DropProb != 0 ||
		len(s.Stuck) > 0 || len(s.Deaths) > 0 || len(s.Spikes) > 0 ||
		len(s.Stalls) > 0 || s.ThermalFailAt > 0
}

// Validate reports structural problems for an n-core chip.
func (s Scenario) Validate(n int) error {
	if s.PowerNoiseSigma < 0 || s.InstrNoiseSigma < 0 ||
		math.IsNaN(s.PowerNoiseSigma) || math.IsNaN(s.InstrNoiseSigma) {
		return fmt.Errorf("fault: negative or NaN noise sigma")
	}
	if !(s.DropProb >= 0 && s.DropProb <= 1) { // negated to also reject NaN
		return fmt.Errorf("fault: drop probability %g outside [0,1]", s.DropProb)
	}
	if math.IsNaN(s.PowerGain) || math.IsNaN(s.PowerDriftPerSec) {
		return fmt.Errorf("fault: NaN calibration gain or drift")
	}
	for _, f := range s.Stuck {
		if f.Core < 0 || f.Core >= n {
			return fmt.Errorf("fault: stuck-at core %d outside chip of %d cores", f.Core, n)
		}
	}
	for _, d := range s.Deaths {
		if d.Core < 0 || d.Core >= n {
			return fmt.Errorf("fault: death of core %d outside chip of %d cores", d.Core, n)
		}
	}
	for _, sp := range s.Spikes {
		// A NaN or infinite scale would poison the budget series (and every
		// downstream metric) rather than model a supply event.
		if !(sp.Scale >= 0) || math.IsInf(sp.Scale, 0) {
			return fmt.Errorf("fault: budget spike scale %g is not a finite non-negative number", sp.Scale)
		}
		if sp.Duration <= 0 {
			return fmt.Errorf("fault: budget spike at %v has non-positive duration", sp.At)
		}
	}
	for _, st := range s.Stalls {
		if st.Duration <= 0 {
			return fmt.Errorf("fault: solver stall at %v has non-positive duration", st.At)
		}
		if st.Hang <= 0 {
			return fmt.Errorf("fault: solver stall at %v has non-positive hang", st.At)
		}
	}
	return nil
}

// Injector applies a Scenario to the observation path. It is stateful (PRNG
// stream) and must be used by a single simulation run.
type Injector struct {
	sc  Scenario
	rng *rand.Rand
	n   int
	// obs is the buffer ObserveSamples reports into, reused every call.
	obs []core.Sample
}

// NewInjector builds an injector for an n-core chip.
func NewInjector(sc Scenario, n int) (*Injector, error) {
	if err := sc.Validate(n); err != nil {
		return nil, err
	}
	return &Injector{sc: sc, rng: rand.New(rand.NewSource(sc.Seed)), n: n}, nil
}

// Scenario returns the plan the injector was built from.
func (in *Injector) Scenario() Scenario { return in.sc }

// ObserveSamples perturbs the true per-core samples into what the manager's
// sensors report at time now. The input is not modified. Draw order is
// fixed (core-major, power noise then instruction noise then dropout) so
// equal seeds replay identically. The result is the injector's own buffer,
// never truth's backing: it is valid until the next call.
func (in *Injector) ObserveSamples(now time.Duration, truth []core.Sample) []core.Sample {
	if cap(in.obs) < len(truth) {
		in.obs = make([]core.Sample, len(truth))
	}
	out := in.obs[:len(truth)]
	copy(out, truth)
	gain := 1 + in.sc.PowerGain + in.sc.PowerDriftPerSec*now.Seconds()
	for c := range out {
		// Draw unconditionally per enabled fault class so the stream does
		// not depend on data values.
		var pNoise, iNoise float64
		if in.sc.PowerNoiseSigma > 0 {
			pNoise = in.sc.PowerNoiseSigma * in.rng.NormFloat64()
		}
		if in.sc.InstrNoiseSigma > 0 {
			iNoise = in.sc.InstrNoiseSigma * in.rng.NormFloat64()
		}
		drop := false
		if in.sc.DropProb > 0 {
			drop = in.rng.Float64() < in.sc.DropProb
		}
		if out[c].Done {
			continue // a completed core's parked sensors are not modelled
		}
		out[c].PowerW *= gain * (1 + pNoise)
		out[c].Instr *= 1 + iNoise
		if out[c].Instr < 0 {
			out[c].Instr = 0
		}
		for _, f := range in.sc.Stuck {
			if f.Core == c && now >= f.At {
				out[c].PowerW = f.PowerW
			}
		}
		if drop {
			if in.sc.DropAsNaN {
				out[c].PowerW = math.NaN()
				out[c].Instr = math.NaN()
			} else {
				out[c].PowerW = 0
				out[c].Instr = 0
			}
		}
	}
	return out
}

// Budget applies any active budget spike to the nominal budget at time now.
func (in *Injector) Budget(now time.Duration, w float64) float64 {
	for _, sp := range in.sc.Spikes {
		if now >= sp.At && now < sp.At+sp.Duration {
			w *= sp.Scale
		}
	}
	return w
}

// CoreDead reports whether core c has permanently failed by time now.
func (in *Injector) CoreDead(c int, now time.Duration) bool {
	for _, d := range in.sc.Deaths {
		if d.Core == c && now >= d.At {
			return true
		}
	}
	return false
}

// ThermalFailed reports whether the thermal sensor is dead at time now.
func (in *Injector) ThermalFailed(now time.Duration) bool {
	return in.sc.ThermalFailAt > 0 && now >= in.sc.ThermalFailAt
}

// DecisionHang returns the wall-clock hang injected into the decision path
// at simulated time now — zero outside every stall window, the largest
// active Hang inside one.
func (in *Injector) DecisionHang(now time.Duration) time.Duration {
	var hang time.Duration
	for _, st := range in.sc.Stalls {
		if now >= st.At && now < st.At+st.Duration && st.Hang > hang {
			hang = st.Hang
		}
	}
	return hang
}

// ParseScenario decodes the CLI fault specification: comma-separated
// key=value fields, keys repeatable where noted.
//
//	seed=42             PRNG seed
//	noise=0.05          power-sensor noise sigma
//	inoise=0.02         instruction-counter noise sigma
//	gain=0.1            calibration gain error
//	drift=5             calibration drift per simulated second
//	drop=0.01           sample dropout probability
//	dropnan             dropped samples read NaN instead of zero
//	stuck=C:P:AT        stuck-at: core C reads P watts from AT (repeatable;
//	                    P may be "nan")
//	death=C:AT          core C dies at AT (repeatable)
//	spike=AT:DUR:SCALE  budget ×SCALE during [AT, AT+DUR) (repeatable)
//	stall=AT:DUR:HANG   decisions hang for HANG wall-clock during
//	                    [AT, AT+DUR) of simulated time (repeatable; needs
//	                    the decision supervisor to have any effect)
//	thermalfail=AT      thermal readings freeze at AT
//
// Durations use Go syntax (500us, 2ms). Example:
//
//	-fault "seed=7,noise=0.05,stuck=1:0.5:2ms,death=3:8ms"
func ParseScenario(spec string) (Scenario, error) {
	var sc Scenario
	if strings.TrimSpace(spec) == "" {
		return sc, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, _ := strings.Cut(field, "=")
		var err error
		switch key {
		case "seed":
			sc.Seed, err = strconv.ParseInt(val, 10, 64)
		case "noise":
			sc.PowerNoiseSigma, err = parseFloat(val)
		case "inoise":
			sc.InstrNoiseSigma, err = parseFloat(val)
		case "gain":
			sc.PowerGain, err = parseFloat(val)
		case "drift":
			sc.PowerDriftPerSec, err = parseFloat(val)
		case "drop":
			sc.DropProb, err = parseFloat(val)
		case "dropnan":
			sc.DropAsNaN = true
		case "stuck":
			var f StuckFault
			f, err = parseStuck(val)
			sc.Stuck = append(sc.Stuck, f)
		case "death":
			var d CoreDeath
			d, err = parseDeath(val)
			sc.Deaths = append(sc.Deaths, d)
		case "spike":
			var sp BudgetSpike
			sp, err = parseSpike(val)
			sc.Spikes = append(sc.Spikes, sp)
		case "stall":
			var st SolverStall
			st, err = parseStall(val)
			sc.Stalls = append(sc.Stalls, st)
		case "thermalfail":
			sc.ThermalFailAt, err = time.ParseDuration(val)
		default:
			return sc, fmt.Errorf("fault: unknown field %q", key)
		}
		if err != nil {
			return sc, fmt.Errorf("fault: field %q: %w", field, err)
		}
	}
	return sc, nil
}

func parseFloat(s string) (float64, error) {
	if strings.EqualFold(s, "nan") {
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func parseStuck(s string) (StuckFault, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return StuckFault{}, fmt.Errorf("want CORE:POWER:AT")
	}
	core, err := strconv.Atoi(parts[0])
	if err != nil {
		return StuckFault{}, err
	}
	p, err := parseFloat(parts[1])
	if err != nil {
		return StuckFault{}, err
	}
	at, err := time.ParseDuration(parts[2])
	if err != nil {
		return StuckFault{}, err
	}
	return StuckFault{Core: core, PowerW: p, At: at}, nil
}

func parseDeath(s string) (CoreDeath, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return CoreDeath{}, fmt.Errorf("want CORE:AT")
	}
	core, err := strconv.Atoi(parts[0])
	if err != nil {
		return CoreDeath{}, err
	}
	at, err := time.ParseDuration(parts[1])
	if err != nil {
		return CoreDeath{}, err
	}
	return CoreDeath{Core: core, At: at}, nil
}

func parseSpike(s string) (BudgetSpike, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return BudgetSpike{}, fmt.Errorf("want AT:DUR:SCALE")
	}
	at, err := time.ParseDuration(parts[0])
	if err != nil {
		return BudgetSpike{}, err
	}
	dur, err := time.ParseDuration(parts[1])
	if err != nil {
		return BudgetSpike{}, err
	}
	scale, err := parseFloat(parts[2])
	if err != nil {
		return BudgetSpike{}, err
	}
	return BudgetSpike{At: at, Duration: dur, Scale: scale}, nil
}

func parseStall(s string) (SolverStall, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return SolverStall{}, fmt.Errorf("want AT:DUR:HANG")
	}
	at, err := time.ParseDuration(parts[0])
	if err != nil {
		return SolverStall{}, err
	}
	dur, err := time.ParseDuration(parts[1])
	if err != nil {
		return SolverStall{}, err
	}
	hang, err := time.ParseDuration(parts[2])
	if err != nil {
		return SolverStall{}, err
	}
	return SolverStall{At: at, Duration: dur, Hang: hang}, nil
}
