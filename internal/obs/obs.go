// Package obs is the engine's observability layer: structured decision
// tracing, deterministic record/replay, and trace diffing for the global
// power manager control loop (internal/engine).
//
// A trace is versioned JSONL: one Line per text line, each a kind-tagged
// envelope holding exactly one payload — a run Manifest first, one decision
// Record per explore interval, and a Footer with the run's golden Result
// fingerprint and counter snapshot last. The format is append-friendly
// (a crashed run leaves a valid prefix), diffable line-by-line, and small
// enough to check fuzz seeds into testdata/.
//
// The package sits strictly downstream of internal/engine: the engine defines
// the Observer hook and DecisionTrace (so it never imports obs), and obs
// provides the implementations — a streaming JSONL Writer, an in-memory
// Collector, a ReplayDecider that re-drives any Substrate bit-identically
// from a recorded trace, and Diff, which names the first diverging
// interval/core/field between two runs.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SchemaVersion is the trace format version stamped into every Manifest.
// Readers reject traces from a newer schema.
const SchemaVersion = 2

// Line is the JSONL envelope: one per text line, kind-tagged, with exactly
// one payload field populated.
type Line struct {
	Kind     string    `json:"kind"`
	Manifest *Manifest `json:"manifest,omitempty"`
	Decision *Record   `json:"decision,omitempty"`
	Footer   *Footer   `json:"footer,omitempty"`
}

// Envelope kinds.
const (
	KindManifest = "manifest"
	KindDecision = "decision"
	KindFooter   = "footer"
)

// Manifest identifies a run well enough to reproduce it: the tool and tree
// that produced the trace, the substrate and workload, the control cadence,
// and the budget/fault configuration as parseable spec strings.
type Manifest struct {
	// Schema is the trace format version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// Tool names the producing front end ("gpmsim run", "cmpsim", ...).
	Tool string `json:"tool,omitempty"`
	// Git is `git describe --always --dirty` of the producing tree.
	Git string `json:"git,omitempty"`
	// Substrate is "cmpsim" (trace players) or "fullsim" (cycle-level chip).
	Substrate string `json:"substrate,omitempty"`
	// ComboID and Benchmarks name the workload mix.
	ComboID    string   `json:"combo,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Policy is the deciding policy's display name.
	Policy string `json:"policy,omitempty"`
	// Cores is the chip width.
	Cores int `json:"cores"`
	// Control cadence: delta-sim interval, deltas per explore interval,
	// explore interval, and horizon, all in nanoseconds.
	DeltaSimNs       int64 `json:"delta_sim_ns"`
	DeltasPerExplore int   `json:"deltas_per_explore"`
	ExploreNs        int64 `json:"explore_ns"`
	HorizonNs        int64 `json:"horizon_ns"`
	// BudgetSpec and FaultSpec are the budget and fault-scenario
	// configuration in their CLI spell-ings ("70", "seed=7,noise=0.05,...");
	// replay parses FaultSpec to rebuild the injector.
	BudgetSpec string `json:"budget,omitempty"`
	FaultSpec  string `json:"fault,omitempty"`
	// Guarded reports the run used the engine's guard.
	Guarded bool `json:"guarded,omitempty"`
	// Seed is the fault injector's seed (also inside FaultSpec; duplicated
	// for grep-ability).
	Seed int64 `json:"seed,omitempty"`
}

// StageRec is one middleware stage's effect on one decision.
type StageRec struct {
	// Name is the stage's chain name ("budget", "thermal-clamp", ...).
	Name string `json:"name"`
	// BudgetW is the budget in force after the stage ran.
	BudgetW float64 `json:"budget_w"`
	// Override reports the stage changed the budget or the observation.
	Override bool `json:"override,omitempty"`
	// DurNs is the stage's wall-clock latency (excluded from fingerprints).
	DurNs int64 `json:"dur_ns,omitempty"`
}

// Record is one explore-boundary decision: what the manager observed, what
// every middleware stage did to it, and the vector that came out.
type Record struct {
	// Interval is the explore-interval index, starting at 0.
	Interval int `json:"i"`
	// NowNs is the simulated decision time in nanoseconds.
	NowNs int64 `json:"now_ns"`
	// BudgetW is the final budget handed to the decider.
	BudgetW float64 `json:"budget_w"`
	// ChipPowerW is the independent chip-level (VRM) measurement.
	ChipPowerW float64 `json:"chip_w"`
	// PowerW/Instr are the per-core observations the manager actually saw.
	PowerW []float64 `json:"power_w"`
	Instr  []float64 `json:"instr"`
	// TruePowerW/TrueInstr are the substrate's honest observations, present
	// only when a fault stage replaced them (nil = identical to PowerW/Instr).
	TruePowerW []float64 `json:"true_power_w,omitempty"`
	TrueInstr  []float64 `json:"true_instr,omitempty"`
	// Stages is the middleware chain's per-stage budget refinement.
	Stages []StageRec `json:"stages,omitempty"`
	// Vector is the mode vector adopted for the coming interval.
	Vector []int `json:"vector"`
	// Candidate is the policy's raw pre-sanitize vector when it differs from
	// Vector (omitted otherwise, and while the guard bypassed the policy).
	Candidate []int `json:"candidate,omitempty"`
	// Guard reports the guard's hard-cap emergency throttle made this
	// decision instead of the policy.
	Guard bool `json:"guard,omitempty"`
	// StallNs is the synchronized transition stall charged for the switch.
	StallNs int64 `json:"stall_ns"`
	// DecideNs is the decider's wall-clock latency (excluded from
	// fingerprints).
	DecideNs int64 `json:"decide_ns,omitempty"`
	// Sup reports the decision ran under the engine's decision supervisor
	// (schema ≥ 2; absent in unsupervised runs and pre-supervisor traces).
	// The remaining supervisor fields are meaningful only when it is set.
	Sup bool `json:"sup,omitempty"`
	// SupRung is the degradation-ladder rung that produced Vector (0 =
	// configured decider, 1 = greedy kernel, 2 = last-known-good refit, 3 =
	// uniform deepest throttle).
	SupRung int `json:"sup_rung,omitempty"`
	// SupRejected/SupRepaired record the conformance gate's work on this
	// decision; SupPredPowerW is the gate's predicted chip power for Vector.
	SupRejected   bool    `json:"sup_rejected,omitempty"`
	SupRepaired   bool    `json:"sup_repaired,omitempty"`
	SupPredPowerW float64 `json:"sup_pred_w,omitempty"`
	// SupTimedOut reports the watchdog abandoned the configured decider this
	// interval (wall-clock dependent, excluded from fingerprints).
	SupTimedOut bool `json:"sup_timed_out,omitempty"`
}

// StageCount is one stage's override tally in the Footer.
type StageCount struct {
	Stage string `json:"stage"`
	Count int    `json:"count"`
}

// Footer closes a trace with the run's outcome: the golden Result
// fingerprint, the headline accounting, the guard's intervention counters
// (which a ReplayDecider needs to reproduce the Result bit-identically), and
// the engine's observability counter snapshot.
type Footer struct {
	// Records is the number of decision Records preceding the footer.
	Records int `json:"records"`
	// Fingerprint is ResultFingerprint(result) in hex — the same golden hash
	// internal/cmpsim pins; TraceFingerprint hashes the deterministic fields
	// of the records themselves.
	Fingerprint      string `json:"fingerprint"`
	TraceFingerprint string `json:"trace_fingerprint"`
	// Headline accounting.
	ElapsedNs  int64   `json:"elapsed_ns"`
	TotalInstr float64 `json:"total_instr"`
	EnergyJ    float64 `json:"energy_j"`
	// Guard accounting, folded from the engine's guard at run end. A
	// ReplayDecider reports these as its own Stats so a replayed run
	// reproduces the original Result's robustness fields bit-identically.
	Guarded            bool  `json:"guarded,omitempty"`
	EmergencyEntries   int   `json:"emergency_entries,omitempty"`
	EmergencyIntervals int   `json:"emergency_intervals,omitempty"`
	RecoveryLatencyNs  int64 `json:"recovery_latency_ns,omitempty"`
	DeadCores          []int `json:"dead_cores,omitempty"`
	SanitizedSamples   int   `json:"sanitized_samples,omitempty"`
	RescaledIntervals  int   `json:"rescaled_intervals,omitempty"`
	// Observability counter snapshot (engine.Result.Obs).
	Decisions      int          `json:"decisions"`
	GuardOverrides int          `json:"guard_overrides,omitempty"`
	SolverNodes    int64        `json:"solver_nodes,omitempty"`
	StageOverrides []StageCount `json:"stage_overrides,omitempty"`
	// Decision-supervisor counters (schema ≥ 2; all omitted without one).
	SupervisorRungs    []int `json:"sup_rungs,omitempty"`
	ConformanceRejects int   `json:"sup_conf_rejects,omitempty"`
	ConformanceRepairs int   `json:"sup_conf_repairs,omitempty"`
	DeadlineTimeouts   int   `json:"sup_timeouts,omitempty"`
	WedgedDecisions    int   `json:"sup_wedged,omitempty"`
	DegradedDecisions  int   `json:"sup_degraded,omitempty"`
	LongestDegraded    int   `json:"sup_longest_degraded,omitempty"`
}

// Trace is a fully parsed trace: manifest, decision records in interval
// order, and the footer. Manifest and Footer may be nil (truncated trace).
type Trace struct {
	Manifest *Manifest
	Records  []Record
	Footer   *Footer
}

// PolicyName returns the manifest's policy name, or "replay" when unknown.
func (t *Trace) PolicyName() string {
	if t.Manifest != nil && t.Manifest.Policy != "" {
		return t.Manifest.Policy
	}
	return "replay"
}

// DecodeError is the typed error for malformed trace input: the 1-based line
// number and the underlying cause. Corrupt input never panics the codec.
type DecodeError struct {
	Line int
	Err  error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("obs: trace line %d: %v", e.Line, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// MarshalLine encodes one envelope as a single JSONL line (trailing newline
// included). Encoding is deterministic: struct field order is fixed and
// float formatting is Go's shortest round-trip form.
func MarshalLine(l *Line) ([]byte, error) {
	b, err := json.Marshal(l)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseLine decodes one JSONL line into its envelope. lineNo (1-based) is
// used for error reporting only. The envelope is validated structurally:
// known kind, exactly the matching payload present.
func ParseLine(data []byte, lineNo int) (*Line, error) {
	var l Line
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, &DecodeError{Line: lineNo, Err: err}
	}
	var want *bool
	present := func(p bool) *bool { return &p }
	switch l.Kind {
	case KindManifest:
		want = present(l.Manifest != nil)
	case KindDecision:
		want = present(l.Decision != nil)
	case KindFooter:
		want = present(l.Footer != nil)
	default:
		return nil, &DecodeError{Line: lineNo, Err: fmt.Errorf("unknown kind %q", l.Kind)}
	}
	if !*want {
		return nil, &DecodeError{Line: lineNo, Err: fmt.Errorf("kind %q without its payload", l.Kind)}
	}
	nPayloads := 0
	for _, p := range []bool{l.Manifest != nil, l.Decision != nil, l.Footer != nil} {
		if p {
			nPayloads++
		}
	}
	if nPayloads != 1 {
		return nil, &DecodeError{Line: lineNo, Err: fmt.Errorf("kind %q with %d payloads", l.Kind, nPayloads)}
	}
	return &l, nil
}

// ReadTrace parses a whole JSONL trace: optional manifest first, decision
// records in order, optional footer last. Blank lines are skipped. Structural
// violations (manifest mid-stream, records after the footer, newer schema)
// return a *DecodeError.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		l, err := ParseLine(raw, lineNo)
		if err != nil {
			return nil, err
		}
		switch l.Kind {
		case KindManifest:
			if t.Manifest != nil || len(t.Records) > 0 || t.Footer != nil {
				return nil, &DecodeError{Line: lineNo, Err: fmt.Errorf("manifest must be the first line")}
			}
			if l.Manifest.Schema > SchemaVersion {
				return nil, &DecodeError{Line: lineNo, Err: fmt.Errorf("schema %d newer than supported %d", l.Manifest.Schema, SchemaVersion)}
			}
			t.Manifest = l.Manifest
		case KindDecision:
			if t.Footer != nil {
				return nil, &DecodeError{Line: lineNo, Err: fmt.Errorf("decision record after footer")}
			}
			t.Records = append(t.Records, *l.Decision)
		case KindFooter:
			if t.Footer != nil {
				return nil, &DecodeError{Line: lineNo, Err: fmt.Errorf("duplicate footer")}
			}
			t.Footer = l.Footer
		}
	}
	if err := sc.Err(); err != nil {
		return nil, &DecodeError{Line: lineNo + 1, Err: err}
	}
	if t.Manifest == nil && len(t.Records) == 0 && t.Footer == nil {
		return nil, &DecodeError{Line: 1, Err: fmt.Errorf("empty trace")}
	}
	return t, nil
}

// ReadTraceFile parses the trace at path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// WriteTrace serializes a parsed trace back to JSONL (manifest, records,
// footer) — the inverse of ReadTrace.
func WriteTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if t.Manifest != nil {
		b, err := MarshalLine(&Line{Kind: KindManifest, Manifest: t.Manifest})
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	for i := range t.Records {
		b, err := MarshalLine(&Line{Kind: KindDecision, Decision: &t.Records[i]})
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if t.Footer != nil {
		b, err := MarshalLine(&Line{Kind: KindFooter, Footer: t.Footer})
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}
