package obs

import (
	"fmt"
	"time"

	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/modes"
)

// ReplayDecider re-drives a substrate from a recorded trace: instead of
// sensing and predicting, every Decide returns the next recorded mode
// vector. Driven with the same substrate, injector, thermal state and
// cadence as the recording run, the engine reproduces the original Result
// bit-identically — the recorded vectors and budgets are the only inputs the
// simulated physics ever consumed (observation noise only ever influenced
// the decisions, which are now replayed verbatim). Guard accounting is
// restored from the trace footer so the folded Result fields match too.
type ReplayDecider struct {
	trace   *Trace
	i       int
	out     modes.Vector
	explore time.Duration
}

var _ engine.Decider = (*ReplayDecider)(nil)

// NewReplayDecider builds a replay decider over t. explore is the run's
// explore interval, used to convert the footer's recovery latency back to
// the guard's interval count (pass the same value the engine runs with).
func NewReplayDecider(t *Trace, explore time.Duration) (*ReplayDecider, error) {
	if len(t.Records) == 0 {
		return nil, fmt.Errorf("obs: replay: trace has no decision records")
	}
	n := len(t.Records[0].Vector)
	if n == 0 {
		return nil, fmt.Errorf("obs: replay: trace records have empty mode vectors")
	}
	return &ReplayDecider{
		trace:   t,
		out:     make(modes.Vector, n),
		explore: explore,
	}, nil
}

// Decide implements engine.Decider: it returns the recorded vector for the
// next interval and a zero report. A run that outlives its trace (cadence
// mismatch) holds the last recorded vector rather than failing mid-loop;
// Replayed reports how many records were consumed so callers can detect
// the mismatch. The returned vector is the decider's own, valid until its
// next decision.
func (d *ReplayDecider) Decide(core.Decision) (modes.Vector, core.Report) {
	rec := &d.trace.Records[len(d.trace.Records)-1]
	if d.i < len(d.trace.Records) {
		rec = &d.trace.Records[d.i]
		d.i++
	}
	d.out = rec.ModeVector(d.out)
	return d.out, core.Report{}
}

// Replayed reports how many trace records have been consumed.
func (d *ReplayDecider) Replayed() int { return d.i }

// InvalidateSession implements engine.Decider: a replay owns no session.
func (d *ReplayDecider) InvalidateSession() {}

// Close implements engine.Decider: a replay holds nothing to release.
func (d *ReplayDecider) Close() {}

// Stats implements engine.Decider by restoring the recording run's guard
// accounting from the trace footer, so the engine folds the same
// EmergencyEntries/RecoveryLatency/DeadCores/... into the replayed Result.
// The footer stores the already-summed sanitized+clamped count; it is
// reported wholly as SanitizedSamples (the engine only consumes the sum).
func (d *ReplayDecider) Stats() core.RunStats {
	f := d.trace.Footer
	if f == nil || !f.Guarded {
		return core.RunStats{}
	}
	st := core.GuardStats{
		SanitizedSamples:   f.SanitizedSamples,
		RescaledIntervals:  f.RescaledIntervals,
		EmergencyEntries:   f.EmergencyEntries,
		EmergencyIntervals: f.EmergencyIntervals,
		DeadCores:          append([]int(nil), f.DeadCores...),
	}
	if d.explore > 0 {
		st.LongestEmergency = int(time.Duration(f.RecoveryLatencyNs) / d.explore)
	}
	return core.RunStats{Guard: st, Guarded: true}
}

// ReplayBudget is the replay counterpart of the whole budget middleware
// chain: it sets each decision's budget to the recorded final value, so
// fault spikes and thermal clamps replay exactly without re-running the
// stages that produced them.
type ReplayBudget struct {
	trace *Trace
	i     int
}

// NewReplayBudget builds the replay budget stage over t.
func NewReplayBudget(t *Trace) *ReplayBudget { return &ReplayBudget{trace: t} }

// Name implements engine.Stage.
func (b *ReplayBudget) Name() string { return "replay-budget" }

// Apply implements engine.Stage.
func (b *ReplayBudget) Apply(st *engine.Step) error {
	if len(b.trace.Records) == 0 {
		return fmt.Errorf("obs: replay: trace has no decision records")
	}
	rec := &b.trace.Records[len(b.trace.Records)-1]
	if b.i < len(b.trace.Records) {
		rec = &b.trace.Records[b.i]
		b.i++
		if want := time.Duration(rec.NowNs); want != st.Now {
			return fmt.Errorf("obs: replay: cadence mismatch at interval %d: trace recorded t=%v, engine at t=%v", rec.Interval, want, st.Now)
		}
	}
	st.BudgetW = rec.BudgetW
	return nil
}
