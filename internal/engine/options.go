package engine

import "fmt"

// OptionError is the typed validation error for user-facing options across
// the front ends: engine.Options, cmpsim.Options, fullsim.Options. It names
// the component, the offending field and value, and why it was rejected, so
// misconfiguration fails loudly at Run time instead of silently misbehaving
// (a NaN budget poisoning every metric, a negative worker count quietly
// serializing a sweep).
type OptionError struct {
	// Component is the front end that rejected the option ("engine",
	// "cmpsim", "fullsim", ...).
	Component string
	// Field is the option field, dotted for nested options.
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what a valid value looks like.
	Reason string
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("%s: option %s = %v: %s", e.Component, e.Field, e.Value, e.Reason)
}

// validate checks Options before Run touches the substrate. All failures
// are *OptionError with Component set to ErrPrefix (or "engine").
func (opt *Options) validate() error {
	comp := opt.ErrPrefix
	if comp == "" {
		comp = "engine"
	}
	fail := func(field string, value any, reason string) error {
		return &OptionError{Component: comp, Field: field, Value: value, Reason: reason}
	}
	if opt.Decider == nil {
		return fail("Decider", nil, "required")
	}
	if opt.Budget == nil {
		return fail("Budget", nil, "required")
	}
	if opt.DeltaSim <= 0 {
		return fail("DeltaSim", opt.DeltaSim, "must be positive")
	}
	if opt.DeltasPerExplore <= 0 {
		return fail("DeltasPerExplore", opt.DeltasPerExplore, "must be positive")
	}
	if opt.Horizon < 0 {
		return fail("Horizon", opt.Horizon, "must be non-negative")
	}
	if opt.Explore < 0 {
		return fail("Explore", opt.Explore, "must be non-negative")
	}
	return nil
}
