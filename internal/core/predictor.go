package core

import (
	"fmt"
	"math"

	"gpm/internal/modes"
)

// MatrixPredictor is the prediction seam of the sense → predict → decide
// loop: anything that can turn the previous interval's observations into the
// §5.5 Power and BIPS Matrices. The analytic Predictor (last-value scaling)
// is the paper's baseline implementation; HistoryPredictor layers a
// pattern-history table on top. Implementations may be stateful (the manager
// calls MatricesInto exactly once per decision, in interval order) but must
// be deterministic functions of the observation sequence.
type MatrixPredictor interface {
	// MatricesInto fills mx with the predicted matrices for the coming
	// interval, given the mode vector in force and the per-core samples
	// observed under it. Reuses mx's backing like Predictor.MatricesInto.
	MatricesInto(mx *Matrices, current modes.Vector, samples []Sample)
	// Explore returns the decision interval length in seconds, forwarded to
	// policies via Context.ExploreSeconds.
	Explore() float64
	// Base returns the analytic last-value predictor underneath. It is a
	// pure value, so it may predict beside another goroutine's MatricesInto
	// on this predictor.
	Base() Predictor
}

// Explore implements MatrixPredictor for the analytic last-value predictor.
func (p Predictor) Explore() float64 { return p.ExploreSeconds }

// Base implements MatrixPredictor: the analytic predictor is its own base.
func (p Predictor) Base() Predictor { return p }

// Compile-time proof that both predictors satisfy MatrixPredictor.
var (
	_ MatrixPredictor = Predictor{}
	_ MatrixPredictor = (*HistoryPredictor)(nil)
)

// HistoryConfig tunes the history-table phase predictor. The zero value of
// any field selects the documented default, so HistoryConfig{} is usable.
type HistoryConfig struct {
	// Depth is the pattern length: how many consecutive quantized
	// utilization deltas form one history-table index. Default 3.
	Depth int
	// Buckets is the one-sided quantization range; a delta quantizes into
	// one of 2·Buckets+1 buckets (−Buckets … +Buckets). Default 3.
	Buckets int
	// StepFrac is the utilization-ratio width of one bucket: bucket k spans
	// instruction ratios around 1 + k·StepFrac. Default 0.08.
	StepFrac float64
}

// DefaultHistory returns the default configuration, spelled out.
func DefaultHistory() HistoryConfig {
	return HistoryConfig{Depth: 3, Buckets: 3, StepFrac: 0.08}
}

// Validate rejects configurations withDefaults would silently misread
// (non-finite StepFrac, negative counts). Front ends call it before building
// a history-equipped manager.
func (c HistoryConfig) Validate() error {
	if math.IsNaN(c.StepFrac) || math.IsInf(c.StepFrac, 0) || c.StepFrac < 0 {
		return fmt.Errorf("HistoryConfig.StepFrac = %v: must be finite and non-negative", c.StepFrac)
	}
	if c.Depth < 0 {
		return fmt.Errorf("HistoryConfig.Depth = %d: must be non-negative", c.Depth)
	}
	if c.Buckets < 0 {
		return fmt.Errorf("HistoryConfig.Buckets = %d: must be non-negative", c.Buckets)
	}
	if c.Depth > 8 {
		return fmt.Errorf("HistoryConfig.Depth = %d: table is (2·Buckets+1)^Depth entries; depth beyond 8 is not supported", c.Depth)
	}
	if c.Buckets > 15 {
		return fmt.Errorf("HistoryConfig.Buckets = %d: more than 15 delta buckets per side is not supported", c.Buckets)
	}
	if n := c.withDefaults().tableSize(); n > maxHistoryTable {
		return fmt.Errorf("HistoryConfig{Depth: %d, Buckets: %d}: %d-entry table exceeds the %d-entry cap", c.Depth, c.Buckets, n, maxHistoryTable)
	}
	return nil
}

// maxHistoryTable bounds the per-core pattern table (entries are one byte).
const maxHistoryTable = 1 << 20

// tableSize returns (2·Buckets+1)^Depth without overflowing past the cap.
func (c HistoryConfig) tableSize() int {
	nb := 2*c.Buckets + 1
	size := 1
	for i := 0; i < c.Depth; i++ {
		size *= nb
		if size > maxHistoryTable {
			return size
		}
	}
	return size
}

func (c HistoryConfig) withDefaults() HistoryConfig {
	d := DefaultHistory()
	if c.Depth <= 0 {
		c.Depth = d.Depth
	} else if c.Depth > 8 {
		c.Depth = 8
	}
	if c.Buckets <= 0 {
		c.Buckets = d.Buckets
	} else if c.Buckets > 15 {
		c.Buckets = 15
	}
	if c.StepFrac <= 0 || math.IsNaN(c.StepFrac) || math.IsInf(c.StepFrac, 0) {
		c.StepFrac = d.StepFrac
	}
	return c
}

// HistoryStats counts the predictor's table activity over a run.
type HistoryStats struct {
	// Lookups counts decisions×cores where the history register was full
	// enough to index the table.
	Lookups int
	// Hits counts lookups answered by a trained table entry (the prediction
	// deviated from last-value).
	Hits int
	// ColdFallbacks counts lookups that fell back to last-value because the
	// indexed entry had never been trained.
	ColdFallbacks int
	// Resets counts per-core history resets forced by unusable telemetry
	// (non-finite readings, idle/finished cores).
	Resets int
}

// historyCore is one core's pattern-history state.
type historyCore struct {
	// table maps a packed pattern of the last Depth quantized deltas to the
	// delta bucket that followed it last time; historyCold marks untrained.
	table []int8
	// pattern is the packed history register (base 2·Buckets+1, Depth
	// digits); warmth counts deltas pushed since the last reset.
	pattern int
	warmth  int
	// prev is the previous interval's committed-instruction count.
	prev   float64
	prevOK bool
}

const historyCold = int8(-128)

// HistoryPredictor upgrades last-value prediction with a per-core pattern
// history table over quantized utilization deltas — the classic
// branch-predictor idea applied to program phases. Each interval the ratio
// of committed instructions to the previous interval's is quantized into a
// bucket; the table learns "after delta pattern P the next delta was b" and,
// on a warm entry, scales the observed instruction count by the predicted
// ratio before handing the sample to the analytic §5.5 projection. Cold
// entries, short histories and unusable telemetry all fall back to the
// wrapped base predictor bit-identically (power predictions always do: phase
// activity moves BIPS far more than it moves the V²f-dominated power).
//
// A HistoryPredictor is stateful and single-run: build a fresh one per
// managed run (cmpsim.Options.History / fullsim.ManagedOptions.History do).
type HistoryPredictor struct {
	base  Predictor
	cfg   HistoryConfig
	nb    int // buckets per delta digit: 2·Buckets+1
	tsize int // table entries: nb^Depth
	cores []historyCore
	// scratch holds the adjusted samples handed to the base predictor, so
	// steady-state prediction allocates nothing.
	scratch []Sample
	stats   HistoryStats
}

// NewHistoryPredictor wraps the analytic base predictor with a pattern
// history table. Zero-value cfg fields select defaults; call
// cfg.Validate() first when the configuration is user-supplied.
func NewHistoryPredictor(base Predictor, cfg HistoryConfig) *HistoryPredictor {
	cfg = cfg.withDefaults()
	if cfg.tableSize() > maxHistoryTable {
		cfg = DefaultHistory()
	}
	return &HistoryPredictor{base: base, cfg: cfg, nb: 2*cfg.Buckets + 1, tsize: cfg.tableSize()}
}

// Explore implements MatrixPredictor by delegating to the base predictor.
func (h *HistoryPredictor) Explore() float64 { return h.base.ExploreSeconds }

// Base implements MatrixPredictor: the wrapped analytic predictor.
func (h *HistoryPredictor) Base() Predictor { return h.base }

// Stats returns a copy of the table-activity counters.
func (h *HistoryPredictor) Stats() HistoryStats { return h.stats }

// MatricesInto implements MatrixPredictor: advance each core's history with
// the new observation, then run the base §5.5 projection on the (possibly
// phase-adjusted) samples.
func (h *HistoryPredictor) MatricesInto(mx *Matrices, current modes.Vector, samples []Sample) {
	n := len(samples)
	if len(h.cores) != n {
		// First decision (or a caller changing width mid-run, which resets).
		h.cores = make([]historyCore, n)
		for c := range h.cores {
			h.cores[c].table = make([]int8, h.tsize)
			for i := range h.cores[c].table {
				h.cores[c].table[i] = historyCold
			}
		}
		h.scratch = make([]Sample, n)
	}
	adj := h.scratch[:n]
	for c := range samples {
		adj[c] = h.observe(c, samples[c])
	}
	h.base.MatricesInto(mx, current, adj)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// observe advances core c's history with sample s and returns the sample the
// base predictor should project — s itself on every fallback path, so cold
// behavior is bit-identical to last-value prediction.
func (h *HistoryPredictor) observe(c int, s Sample) Sample {
	hc := &h.cores[c]
	if !finite(s.PowerW) || !finite(s.Instr) {
		// Hostile telemetry: a non-finite reading would poison every matrix
		// entry the base predictor derives from it. Replace it with a zeroed
		// sample (zero rows are harmless to every policy) and restart the
		// history — the delta across a sensor glitch is meaningless.
		hc.prevOK = false
		hc.warmth = 0
		h.stats.Resets++
		return Sample{Done: s.Done}
	}
	if s.Done || s.Instr <= 0 || s.PowerW < 0 {
		// Finished, idle or nonsensical-but-finite cores carry no phase
		// signal; pass the sample through untouched and restart the history.
		hc.prevOK = false
		hc.warmth = 0
		h.stats.Resets++
		return s
	}
	if hc.prevOK && hc.prev > 0 {
		b := h.quantize(s.Instr / hc.prev)
		if hc.warmth >= h.cfg.Depth {
			// The register holds the Depth deltas that led to this one:
			// train before pushing.
			hc.table[hc.pattern] = int8(b)
		}
		hc.pattern = (hc.pattern*h.nb + (b + h.cfg.Buckets)) % h.tsize
		hc.warmth++
	}
	hc.prev = s.Instr
	hc.prevOK = true

	if hc.warmth < h.cfg.Depth {
		return s
	}
	h.stats.Lookups++
	e := hc.table[hc.pattern]
	if e == historyCold {
		h.stats.ColdFallbacks++
		return s
	}
	h.stats.Hits++
	ratio := 1 + h.cfg.StepFrac*float64(e)
	instr := s.Instr * ratio
	if !finite(instr) || instr < 0 {
		// Overflow guard: a sample near MaxFloat64 times a >1 ratio must
		// still yield finite matrices.
		return s
	}
	return Sample{PowerW: s.PowerW, Instr: instr, Done: s.Done}
}

// quantize maps an instruction ratio to its delta bucket in
// [−Buckets, Buckets]: bucket k covers ratios nearest 1 + k·StepFrac. The
// range clamp happens before the float→int conversion so an extreme ratio
// (tiny previous interval) stays portable and deterministic.
func (h *HistoryPredictor) quantize(ratio float64) int {
	if h.cfg.StepFrac == 0 {
		return 0
	}
	d := (ratio - 1) / h.cfg.StepFrac
	if math.IsNaN(d) {
		return 0
	}
	if d >= float64(h.cfg.Buckets) {
		return h.cfg.Buckets
	}
	if d <= -float64(h.cfg.Buckets) {
		return -h.cfg.Buckets
	}
	return int(math.Round(d))
}
