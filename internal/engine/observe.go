package engine

import (
	"time"

	"gpm/internal/core"
	"gpm/internal/modes"
	"gpm/internal/solver"
)

// StageTrace is the observed effect of one middleware stage on one decision:
// the budget left in force after the stage ran, whether the stage overrode
// anything upstream (lowered/raised the budget or replaced the observed
// samples), and how long its Apply took. Latencies are wall-clock and
// therefore excluded from deterministic trace fingerprints.
type StageTrace struct {
	Name     string
	BudgetW  float64
	Override bool
	DurNs    int64
}

// DecisionTrace is the full observable state of one explore-boundary
// decision: what the manager was shown, what every middleware stage did to
// it, and what came out. The engine reuses the trace value and the slices it
// references between intervals — an Observer must copy anything it retains
// past the Decision call (the internal/obs writers serialize immediately).
type DecisionTrace struct {
	// Interval is the explore-interval index, starting at 0.
	Interval int
	// Now is the simulated time of the decision.
	Now time.Duration
	// BudgetW is the final budget handed to the decider, after every stage.
	BudgetW float64
	// ChipPowerW is the independent chip-level (VRM) measurement the guarded
	// manager cross-checks against.
	ChipPowerW float64
	// TrueSamples are the substrate's honest observations; Samples are what
	// the manager actually saw (identical unless a fault stage intervened).
	TrueSamples []core.Sample
	Samples     []core.Sample
	// Stages records the middleware chain's per-stage budget refinement.
	Stages []StageTrace
	// Candidate is the policy's raw pre-sanitize vector when it differs from
	// Final, nil otherwise (also nil while the guard's emergency throttle
	// bypasses the policy entirely).
	Candidate modes.Vector
	// Final is the mode vector adopted for the coming interval.
	Final modes.Vector
	// GuardEmergency reports that the resilient manager's hard-cap throttle
	// made this decision instead of the policy.
	GuardEmergency bool
	// Stall is the synchronized DVFS transition stall charged for the switch.
	Stall time.Duration
	// DecideNs is the wall-clock latency of the decider's StepDecision.
	DecideNs int64
	// Supervised reports the decision ran under the decision supervisor
	// (Options.Supervisor); the Sup* fields below are meaningful only then.
	Supervised bool
	// SupRung is the degradation-ladder rung that produced Final: 0 the
	// configured decider, 1 the shared greedy kernel, 2 the last-known-good
	// vector refitted to the budget, 3 the uniform deepest-mode throttle.
	SupRung int
	// SupRejected reports the conformance gate rejected the rung-0 vector;
	// SupRepaired reports Final was produced by greedy demotion repair.
	SupRejected bool
	SupRepaired bool
	// SupPredPowerW is the supervisor's own predicted chip power for Final
	// (the value the conformance gate compared against the budget).
	SupPredPowerW float64
	// SupTimedOut reports the watchdog abandoned the configured decider
	// mid-solve this interval (wall-clock dependent, so excluded from
	// deterministic trace fingerprints).
	SupTimedOut bool
}

// Observer receives one DecisionTrace per explore interval and the completed
// Result when the run ends. A nil Observer in Options is the zero-overhead
// path: the engine never constructs a DecisionTrace and never reads the
// clock. Implementations live in internal/obs (JSONL writer, in-memory
// collector).
type Observer interface {
	// Decision is called once per explore-boundary decision, after the
	// middleware chain and the decider have run but before the interval is
	// simulated. The trace and its slices are only valid during the call.
	Decision(t *DecisionTrace)
	// RunEnd is called once with the finished Result before Run returns.
	RunEnd(r *Result)
}

// StageOverride counts how many decisions one middleware stage overrode —
// changed the budget set upstream or replaced the observed samples.
type StageOverride struct {
	Stage string
	Count int
}

// ObsCounters are the engine's always-on lightweight gauges: they cost a few
// integer updates per decision whether or not an Observer is attached, and
// are snapshot into Result for rendering (gpmsim run, internal/report).
type ObsCounters struct {
	// Decisions counts explore-boundary decisions taken.
	Decisions int
	// StageOverrides counts overrides per middleware stage, in chain order.
	// The first stage (the budget source) seeds the budget rather than
	// overriding one and is never counted.
	StageOverrides []StageOverride
	// GuardOverrides counts decisions the resilient manager's emergency
	// throttle made in place of the policy.
	GuardOverrides int
	// SolverNodes accumulates allocation-solver search nodes across
	// decisions, when the policy is solver-backed and counting is wired
	// (core.SolverPolicy.NodeCount).
	SolverNodes int64
	// WarmHints counts decisions handed the previous actuated vector as a
	// warm-start hint (the loop withholds it across discontinuities: first
	// decision, budget jumps, core death/completion, emergency throttle,
	// supervisor degradation).
	WarmHints int
	// SolverMemoHits/SolverWarmSolves/SolverHintReturns/SolverPruned
	// snapshot the solver session's cumulative counters at Finish, when the
	// policy owns one (solver.SessionStats): memo-answered solves,
	// hint-floored BB solves, aborted solves answered by the hint, and
	// pruned subtrees (SolverPruned/SolverNodes is the incumbent-prune
	// rate; SolverNodes vs a cold run of the same scenario is the
	// nodes-saved measure).
	SolverMemoHits    int64
	SolverWarmSolves  int64
	SolverHintReturns int64
	SolverPruned      int64
	// DirtyCores/DeltaSolves/DeltaCertified/DeltaFallbacks snapshot the
	// session's delta-path counters at Finish: cores the generation handshake
	// flagged changed across delta-eligible intervals, incremental re-solve
	// attempts, attempts whose patched vector was certified optimal and
	// returned without a full solve, and attempts demoted to a warm solve.
	DirtyCores     int64
	DeltaSolves    int64
	DeltaCertified int64
	DeltaFallbacks int64
	// Invalidate* count the session invalidations the loop issued per
	// discontinuity class: budget steps beyond the warm-hint tolerance, core
	// death/completion changing the live set, emergency throttles, and
	// supervisor degradation (rung > 0, watchdog timeout, or wedge).
	InvalidateBudgetStep int
	InvalidateCoreDeath  int
	InvalidateEmergency  int
	InvalidateDegraded   int
	// TraceRecords counts DecisionTraces emitted to the attached Observer
	// (zero when tracing is off).
	TraceRecords int
	// SupervisorRungs counts decisions actuated per degradation-ladder rung
	// (all zero without a supervisor; a healthy run lands on rung 0).
	SupervisorRungs [4]int
	// ConformanceRejects counts decisions whose rung-0 vector failed the
	// budget-conformance gate; ConformanceRepairs counts the subset fixed in
	// place by greedy demotion.
	ConformanceRejects int
	ConformanceRepairs int
	// DeadlineTimeouts counts decisions the supervisor's watchdog abandoned
	// mid-solve; WedgedDecisions counts decisions that skipped the configured
	// decider entirely because an abandoned solve was still running.
	DeadlineTimeouts int
	WedgedDecisions  int
	// DegradedDecisions counts decisions actuated from a rung above 0;
	// LongestDegraded is the longest consecutive run of them in explore
	// intervals — the supervisor's recovery-latency bound for the run.
	DegradedDecisions int
	LongestDegraded   int
}

// emergencyReporter is the optional Decider facet the engine polls for the
// GuardOverrides counter (satisfied by core.ResilientManager).
type emergencyReporter interface{ InEmergency() bool }

// candidateReporter is the optional Decider facet exposing the policy's raw
// pre-sanitize vector (satisfied by both managers).
type candidateReporter interface{ LastCandidate() modes.Vector }

// nodeReporter is the optional Policy facet exposing cumulative solver node
// counts (satisfied by core.SolverPolicy when NodeCount is wired).
type nodeReporter interface{ SolveNodes() (int64, bool) }

// sessionOwner is the optional Policy facet for warm-start solver sessions
// (satisfied by *core.SolverPolicy): the loop creates the session when it
// adopts the policy and tears it down on Close.
type sessionOwner interface {
	EnsureSession()
	CloseSession()
}

// sessionReporter is the optional Policy facet exposing the session's
// cumulative warm-start counters for Result.Obs.
type sessionReporter interface {
	SessionStats() (solver.SessionStats, bool)
}

// sessionInvalidator is the optional Policy facet the loop uses to drop the
// session's memo, delta certificate, and stability flag at workload
// discontinuities (satisfied by *core.SolverPolicy).
type sessionInvalidator interface{ InvalidateSession() }

// policyHolder lets the engine reach the decider's policy for nodeReporter.
type policyHolder interface{ Policy() core.Policy }

// supervisionReporter is the Decider facet the engine polls for supervisor
// accounting (satisfied by the internal decision supervisor).
type supervisionReporter interface{ LastSupervision() Supervision }

// currentSetter is the optional Decider facet the supervisor uses to
// re-anchor the inner manager when it actuates a vector the manager did not
// choose (satisfied by both core managers).
type currentSetter interface{ SetCurrent(v modes.Vector) }

// sameSamples reports whether two sample slices are the same backing array —
// the cheap "did a stage replace the observation?" test.
func sameSamples(a, b []core.Sample) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
