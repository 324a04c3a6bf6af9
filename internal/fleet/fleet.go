// Package fleet is the datacenter tier: a deterministic discrete-event
// serving layer over N managed chips, each running the internal/engine
// control loop on the trace-based cmpsim substrate. Seeded open-loop clients
// emit requests (Poisson/Gamma/Weibull inter-arrivals, per-cohort SLO
// classes, diurnal modulation); a router places them onto chips under
// admission control; a facility-level arbiter redistributes the total
// facility power cap across chips every epoch with the solver/hier
// machinery, so per-chip budgets track offered load and a facility cap cut
// cascades: cap → arbiter grants → per-chip engine budgets → mode vectors.
//
// Time advances on one shared event clock in windows of one explore interval
// (500 µs). Each window runs four strictly ordered phases:
//
//  1. epoch boundary (every Epoch): fold per-chip telemetry, rebalance the
//     facility cap into per-chip grants (serial);
//  2. route the window's arrivals in canonical (time, cohort, client, seq)
//     order against start-of-window queue state (serial);
//  3. advance every chip engine one window — DeltasPerExplore StepDelta
//     calls — on the bounded worker pool (parallel; chips are independent
//     within a window, so any worker count is bit-identical);
//  4. drain completions chip-by-chip, core-by-core, delta-by-delta in index
//     order, interpolating completion instants inside each 50 µs delta from
//     the committed-instruction row (serial).
//
// The serial phases are the only cross-chip coupling, so the whole run is a
// pure function of (Config, Library) — pinned by the fleet golden
// fingerprint and TestFleetDeterministicAcrossWorkers.
package fleet

import (
	"fmt"
	"time"

	"gpm/internal/engine"
	"gpm/internal/metrics"
	"gpm/internal/pool"
	"gpm/internal/trace"
	"gpm/internal/workload"
)

// Cohort is one client population sharing an arrival process, a request
// shape and an SLO latency class.
type Cohort struct {
	// Name labels the cohort in reports.
	Name string
	// Clients is the number of independent open-loop clients. Each gets its
	// own PRNG substream, so adding a client never perturbs the others.
	Clients int
	// Process selects the inter-arrival distribution: "poisson" (default),
	// "gamma" or "weibull". All are parameterized to a mean inter-arrival of
	// 1/RatePerClient; Shape controls burstiness for gamma/weibull.
	Process string
	// Shape is the gamma/weibull shape parameter (default 2; ignored for
	// poisson). Shape < 1 is burstier than Poisson, > 1 smoother.
	Shape float64
	// RatePerClient is the mean request rate per client in requests/second.
	RatePerClient float64
	// CostInstr is the committed instructions one request consumes on its
	// assigned core.
	CostInstr float64
	// SLO is the latency target: a request "attains" the SLO when it
	// completes within SLO of its arrival. Shed and unfinished requests
	// count as misses.
	SLO time.Duration
	// DiurnalAmp in [0, 1) modulates the arrival rate sinusoidally:
	// rate(t) = RatePerClient · (1 + DiurnalAmp·sin(2π(t/Period + Phase))).
	// 0 disables modulation.
	DiurnalAmp float64
	// DiurnalPeriod is the modulation period (default: the horizon).
	DiurnalPeriod time.Duration
	// DiurnalPhase in [0, 1) offsets the cohort's phase, so cohorts can
	// peak at different times.
	DiurnalPhase float64
}

// Config describes one fleet scenario.
type Config struct {
	// Chips is the fleet size; every chip runs Combo under its own engine.
	Chips int
	// Combo is the per-chip benchmark assignment (the background work whose
	// committed instructions serve requests).
	Combo workload.Combo
	// Cohorts is the client mix; at least one is required.
	Cohorts []Cohort
	// Horizon is the simulated duration (default 20 ms).
	Horizon time.Duration
	// Epoch is the arbiter rebalance period; must be a multiple of the
	// explore interval (default 4 explore intervals = 2 ms).
	Epoch time.Duration
	// FacilityCapW returns the facility power cap at time t. Nil defaults
	// to CapFrac × Σ chip envelopes. Time-varying caps model brownouts: the
	// arbiter re-reads the cap every epoch, so a mid-run cut cascades into
	// the per-chip grants within one epoch.
	FacilityCapW func(t time.Duration) float64
	// CapFrac scales the default constant cap (default 1.0); ignored when
	// FacilityCapW is set.
	CapFrac float64
	// Policy is the placement policy: "least-loaded" (default), "rr" or
	// "power-aware".
	Policy string
	// QueueCap bounds queued-but-incomplete requests per chip; arrivals that
	// find every chip full are shed (default 64).
	QueueCap int
	// Levels are the grant fractions of a chip's envelope the arbiter may
	// assign, highest first (default 1.0 … 0.25). The arbiter solves a
	// budgeted allocation with chips as "cores" and levels as "modes".
	Levels []float64
	// GrantSmoothing in [0, 1) is the per-chip EWMA on arbiter grants:
	// grant = β·previous + (1−β)·solved (default 0.3). It damps epoch-to-
	// epoch grant oscillation on bursty demand.
	GrantSmoothing float64
	// HierAlpha in [0, 1) is solver/hier's share smoothing across epochs
	// (default 0.3); active when Chips > ClusterSize.
	HierAlpha float64
	// ClusterSize groups chips for the hierarchical arbiter solve
	// (default 4).
	ClusterSize int
	// Seed drives every arrival draw through split substreams.
	Seed int64
	// Workers bounds the shared worker pool stepping chip engines
	// (0 = GOMAXPROCS). Results are bit-identical for every value.
	Workers int
}

// withDefaults fills zero fields and validates.
func (cfg Config) withDefaults(window time.Duration) (Config, error) {
	if cfg.Chips < 1 {
		return cfg, fmt.Errorf("fleet: Chips must be >= 1, got %d", cfg.Chips)
	}
	if len(cfg.Cohorts) == 0 {
		return cfg, fmt.Errorf("fleet: at least one cohort required")
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 20 * time.Millisecond
	}
	if cfg.Horizon <= 0 {
		return cfg, fmt.Errorf("fleet: Horizon must be positive, got %v", cfg.Horizon)
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 4 * window
	}
	if cfg.Epoch < window || cfg.Epoch%window != 0 {
		return cfg, fmt.Errorf("fleet: Epoch %v must be a positive multiple of the explore interval %v", cfg.Epoch, window)
	}
	if cfg.CapFrac == 0 {
		cfg.CapFrac = 1.0
	}
	if cfg.CapFrac < 0 {
		return cfg, fmt.Errorf("fleet: CapFrac must be positive, got %v", cfg.CapFrac)
	}
	if cfg.Policy == "" {
		cfg.Policy = "least-loaded"
	}
	switch cfg.Policy {
	case "rr", "least-loaded", "power-aware":
	default:
		return cfg, fmt.Errorf("fleet: unknown placement policy %q (want rr, least-loaded or power-aware)", cfg.Policy)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.QueueCap < 1 {
		return cfg, fmt.Errorf("fleet: QueueCap must be >= 1, got %d", cfg.QueueCap)
	}
	if cfg.Levels == nil {
		cfg.Levels = []float64{1.00, 0.85, 0.70, 0.55, 0.40, 0.25}
	}
	prev := 2.0
	for _, l := range cfg.Levels {
		if l <= 0 || l > 1 || l >= prev {
			return cfg, fmt.Errorf("fleet: Levels must be strictly decreasing fractions in (0, 1], got %v", cfg.Levels)
		}
		prev = l
	}
	if cfg.GrantSmoothing == 0 {
		cfg.GrantSmoothing = 0.3
	}
	if cfg.GrantSmoothing < 0 || cfg.GrantSmoothing >= 1 {
		return cfg, fmt.Errorf("fleet: GrantSmoothing must be in [0, 1), got %v", cfg.GrantSmoothing)
	}
	if cfg.HierAlpha == 0 {
		cfg.HierAlpha = 0.3
	}
	if cfg.HierAlpha < 0 || cfg.HierAlpha >= 1 {
		return cfg, fmt.Errorf("fleet: HierAlpha must be in [0, 1), got %v", cfg.HierAlpha)
	}
	if cfg.ClusterSize == 0 {
		cfg.ClusterSize = 4
	}
	if cfg.ClusterSize < 1 {
		return cfg, fmt.Errorf("fleet: ClusterSize must be >= 1, got %d", cfg.ClusterSize)
	}
	// cfg is a copy, but its Cohorts share the caller's backing array:
	// defaults go into a clone, so New and Run never write to their
	// caller's config (concurrent sweep points share one).
	cfg.Cohorts = append([]Cohort(nil), cfg.Cohorts...)
	for i := range cfg.Cohorts {
		co := &cfg.Cohorts[i]
		if co.Name == "" {
			co.Name = fmt.Sprintf("cohort%d", i)
		}
		if co.Clients < 1 {
			return cfg, fmt.Errorf("fleet: cohort %s: Clients must be >= 1", co.Name)
		}
		if co.Process == "" {
			co.Process = "poisson"
		}
		switch co.Process {
		case "poisson", "gamma", "weibull":
		default:
			return cfg, fmt.Errorf("fleet: cohort %s: unknown process %q (want poisson, gamma or weibull)", co.Name, co.Process)
		}
		if co.Shape == 0 {
			co.Shape = 2
		}
		if co.Shape <= 0 {
			return cfg, fmt.Errorf("fleet: cohort %s: Shape must be positive", co.Name)
		}
		if co.RatePerClient <= 0 {
			return cfg, fmt.Errorf("fleet: cohort %s: RatePerClient must be positive", co.Name)
		}
		if co.CostInstr <= 0 {
			return cfg, fmt.Errorf("fleet: cohort %s: CostInstr must be positive", co.Name)
		}
		if co.SLO <= 0 {
			return cfg, fmt.Errorf("fleet: cohort %s: SLO must be positive", co.Name)
		}
		if co.DiurnalAmp < 0 || co.DiurnalAmp >= 1 {
			return cfg, fmt.Errorf("fleet: cohort %s: DiurnalAmp must be in [0, 1)", co.Name)
		}
		if co.DiurnalPeriod == 0 {
			co.DiurnalPeriod = cfg.Horizon
		}
		if co.DiurnalPhase < 0 || co.DiurnalPhase >= 1 {
			return cfg, fmt.Errorf("fleet: cohort %s: DiurnalPhase must be in [0, 1)", co.Name)
		}
	}
	return cfg, nil
}

// request is one unit of work flowing through the fleet.
type request struct {
	cohort, client, seq int
	arriveSec           float64
	cost                float64

	// Routing outcome.
	shed       bool
	chip, core int

	// Service state.
	remaining   float64
	done        bool
	completeSec float64
}

// Fleet is one scenario instance; New builds it, Run drives it to the
// horizon. A Fleet is single-use.
type Fleet struct {
	cfg Config
	lib *trace.Library

	window    time.Duration
	windowSec float64
	deltaSec  float64
	deltasPW  int // deltas per window
	windowsPE int // windows per epoch

	chips []*chip
	// advance steps chip i one window. New builds it once, so the window's
	// fan-out allocates nothing when it runs serially.
	advance  func(i int) error
	router   *router
	arbiter  *arbiter
	arrivals []*request
	next     int // cursor into arrivals

	epochLog []EpochStats
	ran      bool
}

// New builds the fleet: chip engines (bootstrap-probed, first decision
// pending), the pre-generated arrival schedule, the router and the arbiter.
func New(lib *trace.Library, cfg Config) (*Fleet, error) {
	simCfg := lib.Config()
	window := simCfg.Sim.Explore
	cfg, err := cfg.withDefaults(window)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:       cfg,
		lib:       lib,
		window:    window,
		windowSec: window.Seconds(),
		deltaSec:  simCfg.Sim.DeltaSim.Seconds(),
		deltasPW:  simCfg.DeltaPerExplore(),
		windowsPE: int(cfg.Epoch / window),
	}
	for i := 0; i < cfg.Chips; i++ {
		c, err := newChip(lib, cfg, i)
		if err != nil {
			f.closeChips()
			return nil, err
		}
		f.chips = append(f.chips, c)
	}
	f.arrivals, err = generateArrivals(cfg)
	if err != nil {
		f.closeChips()
		return nil, err
	}
	f.advance = func(i int) error { return f.chips[i].advance() }
	f.router = newRouter(cfg)
	f.arbiter = newArbiter(lib, cfg, f.chips)
	return f, nil
}

func (f *Fleet) closeChips() {
	for _, c := range f.chips {
		c.loop.Close()
	}
	if f.arbiter != nil {
		f.arbiter.close()
	}
}

// capW resolves the facility cap at time t.
func (f *Fleet) capW(t time.Duration) float64 {
	if f.cfg.FacilityCapW != nil {
		return f.cfg.FacilityCapW(t)
	}
	var env float64
	for _, c := range f.chips {
		env += c.envelopeW
	}
	return f.cfg.CapFrac * env
}

// Run drives the fleet to the horizon and returns the scenario result.
func (f *Fleet) Run() (*Result, error) {
	if f.ran {
		return nil, fmt.Errorf("fleet: Fleet is single-use; build a new one per run")
	}
	f.ran = true
	defer f.closeChips()

	nw := int((f.cfg.Horizon + f.window - 1) / f.window)
	for w := 0; w < nw; w++ {
		start := time.Duration(w) * f.window
		if w%f.windowsPE == 0 {
			f.epochLog = append(f.epochLog, f.arbiter.rebalance(f, start))
		}
		f.route(float64(w)*f.windowSec, float64(w+1)*f.windowSec)
		if err := pool.ForEach(pool.Workers(f.cfg.Workers), len(f.chips), f.advance); err != nil {
			return nil, err
		}
		for _, c := range f.chips {
			c.drain(f)
		}
	}
	return f.finalize()
}

// CohortStats is the per-cohort serving outcome.
type CohortStats struct {
	Name string
	// Arrived counts generated requests; Completed those served to
	// completion; Shed those rejected by admission control; Unfinished
	// those still queued or in service at the horizon.
	Arrived, Completed, Shed, Unfinished int
	// AttainedSLO counts completions within the cohort's SLO; Attainment is
	// AttainedSLO/Arrived (shed and unfinished requests count as misses).
	AttainedSLO int
	Attainment  float64
	// Latency summarizes completed requests' latencies in seconds.
	Latency     metrics.LatencyPercentiles
	MeanLatency float64
	// ServedInstr is the instruction volume of completed requests.
	ServedInstr float64
}

// EpochStats is one arbiter epoch: the cap it saw and the grants it issued.
type EpochStats struct {
	Start time.Duration
	// FacilityCapW is the cap read at the epoch boundary; GrantW the
	// resulting per-chip budgets (Σ GrantW ≤ FacilityCapW).
	FacilityCapW float64
	GrantW       []float64
	// BacklogInstr and DemandInstr snapshot the queues the arbiter saw.
	BacklogInstr []float64
	DemandInstr  []float64
	// DirtyChips counts chips whose efficiency estimate or demand changed
	// since the previous epoch (the generation handshake's dirty set);
	// SolveSkipped reports the arbiter reused the previous grant vector
	// outright because nothing changed and the session attested stability.
	// Neither field is folded into Fingerprint (both are solve-cost
	// telemetry, not allocation outcomes).
	DirtyChips   int
	SolveSkipped bool
}

// Result is one fleet scenario outcome.
type Result struct {
	Chips   int
	Policy  string
	Horizon time.Duration
	Epoch   time.Duration

	Cohorts  []CohortStats
	EpochLog []EpochStats

	// Totals across cohorts.
	Arrived, Completed, Shed, Unfinished int
	// ThroughputRPS is completed requests per simulated second.
	ThroughputRPS float64
	// JainFairness is Jain's index over per-cohort SLO attainment.
	JainFairness float64
	// ServedInstr sums completed requests' instruction volume; TotalInstr
	// and EnergyJ aggregate the chips' committed work and energy.
	ServedInstr float64
	TotalInstr  float64
	EnergyJ     float64
	// AvgFacilityPowerW is fleet energy over the horizon.
	AvgFacilityPowerW float64

	// ChipResults are the per-chip engine results (mode vectors, power
	// series, budgets) in chip order.
	ChipResults []*engine.Result

	// ServeHash folds every request's routing and completion fields into
	// one digest; Fingerprint combines it with the chip results, so any
	// drift in the serving path moves the golden.
	ServeHash uint64
}

// finalize seals chip engines and folds the request log into per-cohort
// statistics.
func (f *Fleet) finalize() (*Result, error) {
	r := &Result{
		Chips:    f.cfg.Chips,
		Policy:   f.cfg.Policy,
		Horizon:  f.cfg.Horizon,
		Epoch:    f.cfg.Epoch,
		EpochLog: f.epochLog,
	}
	for _, c := range f.chips {
		cr := c.loop.Finish()
		r.ChipResults = append(r.ChipResults, cr)
		r.TotalInstr += cr.TotalInstr
		r.EnergyJ += cr.EnergyJ
	}
	r.AvgFacilityPowerW = r.EnergyJ / f.cfg.Horizon.Seconds()

	lat := make([][]float64, len(f.cfg.Cohorts))
	r.Cohorts = make([]CohortStats, len(f.cfg.Cohorts))
	for i, co := range f.cfg.Cohorts {
		r.Cohorts[i].Name = co.Name
	}
	for _, rq := range f.arrivals {
		cs := &r.Cohorts[rq.cohort]
		cs.Arrived++
		switch {
		case rq.shed:
			cs.Shed++
		case rq.done:
			cs.Completed++
			l := rq.completeSec - rq.arriveSec
			lat[rq.cohort] = append(lat[rq.cohort], l)
			if l <= f.cfg.Cohorts[rq.cohort].SLO.Seconds() {
				cs.AttainedSLO++
			}
			cs.ServedInstr += rq.cost
		default:
			cs.Unfinished++
		}
	}
	attain := make([]float64, len(r.Cohorts))
	for i := range r.Cohorts {
		cs := &r.Cohorts[i]
		if cs.Arrived > 0 {
			cs.Attainment = float64(cs.AttainedSLO) / float64(cs.Arrived)
		}
		cs.Latency = metrics.SummarizeLatency(lat[i])
		cs.MeanLatency = metrics.ArithmeticMean(lat[i])
		attain[i] = cs.Attainment
		r.Arrived += cs.Arrived
		r.Completed += cs.Completed
		r.Shed += cs.Shed
		r.Unfinished += cs.Unfinished
		r.ServedInstr += cs.ServedInstr
	}
	r.ThroughputRPS = float64(r.Completed) / f.cfg.Horizon.Seconds()
	r.JainFairness = metrics.JainFairness(attain)
	r.ServeHash = serveHash(f.arrivals)
	return r, nil
}

// Run is the one-call convenience: build and drive a scenario.
func Run(lib *trace.Library, cfg Config) (*Result, error) {
	f, err := New(lib, cfg)
	if err != nil {
		return nil, err
	}
	return f.Run()
}
