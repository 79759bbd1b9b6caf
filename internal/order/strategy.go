package order

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dd"
)

// Strategy wraps an inner approximation strategy with a variable-reordering
// policy: the session installs the named static order before the initial
// state is built and, when sifting is enabled, runs dynamic passes at the
// between-gate safe point. The inner strategy (default exact) still decides
// approximation, so reordering composes with exact/memory/fidelity — and
// with any registered strategy — rather than replacing them.
//
// Registered as "reorder"; see Params for the JSON parameters accepted over
// HTTP via strategy_params and in-process via core.NewStrategyByName.
type Strategy struct {
	policy core.ReorderPolicy
	inner  core.Strategy
}

// NewReorder wraps inner (nil = exact) with the given reordering policy.
func NewReorder(policy core.ReorderPolicy, inner core.Strategy) *Strategy {
	if inner == nil {
		inner = core.Exact{}
	}
	return &Strategy{policy: policy, inner: inner}
}

// Name implements core.Strategy.
func (s *Strategy) Name() string {
	static := s.policy.Static
	if static == "" {
		static = Identity
	}
	name := "reorder(" + static
	if s.policy.Sift {
		name += "+sift"
	}
	return name + ")+" + s.inner.Name()
}

// Init implements core.Strategy: it validates the policy and initializes the
// inner strategy.
func (s *Strategy) Init(totalGates int, blocks []int) error {
	if s.policy.Static != "" && !Valid(s.policy.Static) {
		return fmt.Errorf("order: unknown ordering %q (supported: %v)", s.policy.Static, Names())
	}
	if s.policy.SiftThreshold < 0 || s.policy.SiftMaxPasses < 0 || s.policy.SiftMaxVars < 0 {
		return fmt.Errorf("order: sift bounds must be ≥ 0")
	}
	return s.inner.Init(totalGates, blocks)
}

// AfterGate implements core.Strategy by delegating to the inner strategy.
func (s *Strategy) AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *core.Round, error) {
	return s.inner.AfterGate(m, gateIdx, size, state)
}

// ReorderPolicy implements core.Reorderer.
func (s *Strategy) ReorderPolicy() core.ReorderPolicy { return s.policy }

// Params are the JSON parameters of the "reorder" strategy: the policy's
// own fields ("order", default "identity"; "sift" and its bounds, whose
// zero values select the session defaults) plus the wrapped strategy.
type Params struct {
	core.ReorderPolicy
	// Inner selects the wrapped approximation strategy by registry name
	// (default "exact"); InnerParams carries its JSON parameters verbatim.
	Inner       string          `json:"inner,omitempty"`
	InnerParams json.RawMessage `json:"inner_params,omitempty"`
}

func init() {
	err := core.RegisterStrategy("reorder", func(params json.RawMessage) (core.Strategy, error) {
		var p Params
		if err := core.DecodeParams(params, &p); err != nil {
			return nil, err
		}
		if p.Inner == "reorder" {
			return nil, fmt.Errorf("order: reorder cannot wrap itself")
		}
		inner, err := core.NewStrategyByName(p.Inner, p.InnerParams)
		if err != nil {
			return nil, err
		}
		return NewReorder(p.ReorderPolicy, inner), nil
	})
	if err != nil {
		panic(err)
	}
}
