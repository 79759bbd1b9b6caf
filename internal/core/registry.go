package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// StrategyFactory builds a fresh Strategy from JSON-encoded parameters.
// Factories must return a new instance on every call (strategies are stateful
// per run) and should reject unknown fields with an error (DecodeParams);
// checking the values is Init's job. params may be nil or empty when the
// caller supplied none.
type StrategyFactory func(params json.RawMessage) (Strategy, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]StrategyFactory)
)

// RegisterStrategy makes a strategy constructible by name — in-process via
// NewStrategyByName and over HTTP via the simulation service's `strategy`
// field. Names are case-sensitive; registering an empty name, a nil factory,
// or a name already taken (including the builtins "exact", "memory",
// "fidelity" and "replace", and "reorder" once internal/order is imported)
// is an error. The registry is append-only and safe for concurrent use.
func RegisterStrategy(name string, factory StrategyFactory) error {
	if name == "" {
		return fmt.Errorf("core: strategy name must be non-empty")
	}
	if factory == nil {
		return fmt.Errorf("core: strategy %q registered with nil factory", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("core: strategy %q already registered", name)
	}
	registry[name] = factory
	return nil
}

// NewStrategyByName builds a fresh strategy instance from its registered
// factory. The empty name selects "exact". The returned strategy has not been
// Init'ed; the simulation driver does that at session start.
func NewStrategyByName(name string, params json.RawMessage) (Strategy, error) {
	if name == "" {
		name = "exact"
	}
	registryMu.RLock()
	factory := registry[name]
	registryMu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("core: unknown strategy %q (registered: %v)", name, StrategyNames())
	}
	s, err := factory(params)
	if err != nil {
		return nil, fmt.Errorf("core: strategy %q: %w", name, err)
	}
	if s == nil {
		return nil, fmt.Errorf("core: strategy %q factory returned nil", name)
	}
	return s, nil
}

// StrategyNames returns every registered strategy name, sorted.
func StrategyNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DecodeParams decodes a strategy's JSON parameters into into, rejecting
// unknown fields and trailing data so a misspelt key fails instead of
// silently running with a default. Empty params leave into untouched.
func DecodeParams(params json.RawMessage, into any) error {
	if len(params) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after parameters")
	}
	return nil
}

// decodeStrategy is the factory of a strategy whose parameters are its own
// JSON-tagged fields: it decodes params into a fresh *T and leaves every
// semantic check to Init.
func decodeStrategy[T any, PT interface {
	*T
	Strategy
}](params json.RawMessage) (Strategy, error) {
	s := PT(new(T))
	if err := DecodeParams(params, s); err != nil {
		return nil, err
	}
	return s, nil
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(RegisterStrategy("exact", func(params json.RawMessage) (Strategy, error) {
		// Exact takes no parameters: only empty, null or {} pass.
		if err := DecodeParams(params, &struct{}{}); err != nil {
			return nil, err
		}
		return Exact{}, nil
	}))
	must(RegisterStrategy("memory", decodeStrategy[MemoryDriven]))
	must(RegisterStrategy("fidelity", decodeStrategy[FidelityDriven]))
	must(RegisterStrategy("replace", decodeStrategy[ReplaceDriven]))
}
