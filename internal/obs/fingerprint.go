package obs

import (
	"math"

	"gpm/internal/engine"
)

// FNV-64a parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Digest is an inline FNV-64a hash over 64-bit words, floats and strings —
// the one hashing primitive behind every golden fingerprint (Result, trace,
// calibration, fleet), so they can never drift apart. A word is hashed as
// its 8 little-endian bytes and a float as its IEEE-754 bits, so a digest
// equals hash/fnv's New64a fed the same bytes; unlike writing through a
// hash.Hash64, hashing a value allocates nothing.
type Digest struct{ h uint64 }

// NewDigest returns an empty digest.
func NewDigest() Digest { return Digest{h: fnvOffset64} }

// Word hashes u's 8 bytes, least significant first.
func (d *Digest) Word(u uint64) {
	h := d.h
	for i := 0; i < 8; i++ {
		h = (h ^ u&0xff) * fnvPrime64
		u >>= 8
	}
	d.h = h
}

// Float hashes f bit-exactly.
func (d *Digest) Float(f float64) { d.Word(math.Float64bits(f)) }

// Flag hashes b as the float 1 or 0.
func (d *Digest) Flag(b bool) {
	if b {
		d.Float(1)
	} else {
		d.Float(0)
	}
}

// Text hashes the bytes of s, with no terminator.
func (d *Digest) Text(s string) {
	h := d.h
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	d.h = h
}

// Sum returns the digest of everything hashed so far.
func (d *Digest) Sum() uint64 { return d.h }

// ResultFingerprint hashes every numeric series and counter of a Result
// bit-exactly, including the robustness accounting and the final samples, so
// any drift in the simulation loop — decision order, stall accounting,
// truncation handling, guard state machine — changes the hash. This is the
// golden fingerprint pinned by internal/cmpsim/golden_test.go and stamped
// into every trace footer. Observability counters (Result.Obs) are gauges
// about the run, not simulated physics, and are excluded.
func ResultFingerprint(r *engine.Result) uint64 {
	w := NewDigest()
	for i := range r.ChipPowerW {
		w.Float(r.ChipPowerW[i])
		w.Float(r.BudgetW[i])
		for c := 0; c < r.CorePowerW.Width(); c++ {
			w.Float(r.CorePowerW.At(i, c))
			w.Float(r.CoreInstr.At(i, c))
		}
	}
	for _, v := range r.Modes {
		for _, m := range v {
			w.Float(float64(m))
		}
	}
	for _, tc := range r.MaxTempC {
		w.Float(tc)
	}
	for c := range r.PerCoreInstr {
		w.Float(r.PerCoreInstr[c])
		w.Float(r.FinalSamples[c].PowerW)
		w.Float(r.FinalSamples[c].Instr)
		w.Flag(r.FinalSamples[c].Done)
	}
	w.Float(r.TotalInstr)
	w.Float(r.EnergyJ)
	w.Float(float64(r.Elapsed))
	w.Float(float64(r.TransitionStall))
	w.Float(float64(r.FirstCompleted))
	w.Float(float64(r.OvershootIntervals))
	w.Float(r.OvershootEnergyWs)
	w.Float(r.WorstOvershootWs)
	w.Float(float64(r.EmergencyEntries))
	w.Float(float64(r.EmergencyIntervals))
	w.Float(float64(r.RecoveryLatency))
	w.Float(float64(r.SanitizedSamples))
	w.Float(float64(r.RescaledIntervals))
	for _, c := range r.DeadCores {
		w.Float(float64(c))
	}
	return w.Sum()
}

// hashRecord folds the deterministic fields of one decision record into w.
// Wall-clock latencies (stage DurNs, DecideNs) are excluded: two runs of the
// same configuration must produce the same trace fingerprint on any
// machine.
func hashRecord(w *Digest, r *Record) {
	w.Float(float64(r.Interval))
	w.Float(float64(r.NowNs))
	w.Float(r.BudgetW)
	w.Float(r.ChipPowerW)
	for c := range r.PowerW {
		w.Float(r.PowerW[c])
		w.Float(r.Instr[c])
	}
	w.Float(float64(len(r.TruePowerW)))
	for c := range r.TruePowerW {
		w.Float(r.TruePowerW[c])
		w.Float(r.TrueInstr[c])
	}
	for _, s := range r.Stages {
		w.Text(s.Name)
		w.Float(s.BudgetW)
		w.Flag(s.Override)
	}
	for _, m := range r.Vector {
		w.Float(float64(m))
	}
	w.Float(float64(len(r.Candidate)))
	for _, m := range r.Candidate {
		w.Float(float64(m))
	}
	w.Flag(r.Guard)
	w.Float(float64(r.StallNs))
	// The supervisor block is hashed only when the record is supervised, so
	// pre-schema-2 traces and unsupervised runs keep their exact historical
	// fingerprints. SupTimedOut is wall-clock dependent and excluded — a
	// deadline race must not change the trace fingerprint.
	if r.Sup {
		w.Float(1)
		w.Float(float64(r.SupRung))
		w.Flag(r.SupRejected)
		w.Flag(r.SupRepaired)
		w.Float(r.SupPredPowerW)
	}
}

// TraceFingerprint hashes the deterministic fields of every decision record
// in a parsed trace — identical to the trace_fingerprint the Writer stamps
// into the footer while streaming.
func TraceFingerprint(t *Trace) uint64 {
	h := NewDigest()
	for i := range t.Records {
		hashRecord(&h, &t.Records[i])
	}
	return h.Sum()
}
