package atlas

import (
	// The winner table references the "reorder" strategy; importing the
	// order package registers it, so any consumer resolving a Config via
	// core.NewStrategyByName finds every name the table can mention.
	_ "repro/internal/order"
)

// Generic is the fallback class key for circuits no generator family
// claims; the generated table always carries an entry for it.
const Generic = "generic"

// Config is one class's winning strategy configuration, in the exact shape
// serve's strategy/strategy_params request fields (and
// core.NewStrategyByName) accept.
type Config struct {
	// Class is the workload class key (gen.Classify vocabulary).
	Class string
	// Strategy is the registry name to install ("memory", "reorder", ...).
	Strategy string
	// Params is the strategy's JSON parameters; empty means none.
	Params string
	// Base and Order describe the configuration for humans: the base
	// approximation strategy inside any reorder wrapper, and the variable
	// ordering it runs under.
	Base, Order string
}

// Resolve returns the winner for class, falling back to the Generic entry
// for unknown classes. The generated table guarantees Generic exists.
func Resolve(class string) Config {
	if c, ok := winners[class]; ok {
		return c
	}
	return winners[Generic]
}
