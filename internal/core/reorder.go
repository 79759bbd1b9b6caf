package core

// ReorderPolicy is a strategy's variable-ordering request, read by the
// simulation session before the initial state is built (static part) and at
// the between-gate safe point (dynamic part). The policy names an ordering
// rather than carrying a permutation because computing one needs the
// circuit, which strategies never see — the session resolves the name
// through the ordering package.
type ReorderPolicy struct {
	// Static names the qubit→level ordering installed at session start:
	// "identity", "reversed", or "scored" (gate-locality heuristic). Empty
	// means identity.
	Static string `json:"order,omitempty"`
	// Sift enables dynamic sifting passes at the between-gate safe point.
	Sift bool `json:"sift,omitempty"`
	// SiftThreshold is the state-DD node count that triggers a pass
	// (0 = 4096). After a pass the effective threshold grows so a workload
	// sifting cannot compress is not re-sifted after every gate.
	SiftThreshold int `json:"sift_threshold,omitempty"`
	// SiftMaxPasses caps the passes per run (0 = 2).
	SiftMaxPasses int `json:"sift_max_passes,omitempty"`
	// SiftMaxVars caps the qubits sifted per pass, widest level first
	// (0 = all).
	SiftMaxVars int `json:"sift_max_vars,omitempty"`
}

// Reorderer is implemented by strategies that request variable reordering.
// The simulation driver queries it once after Strategy.Init; strategies that
// do not implement it run under the identity order.
type Reorderer interface {
	ReorderPolicy() ReorderPolicy
}
