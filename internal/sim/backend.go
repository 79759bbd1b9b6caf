package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/density"
)

// Backend selects the state representation a Session evolves.
type Backend string

const (
	// BackendStatevector is the default: a pure state on a vector DD.
	// With Options.Noise set it simulates one Monte-Carlo trajectory,
	// sampling a Kraus branch per touched qubit after each gate.
	BackendStatevector Backend = "statevector"
	// BackendDensity evolves a density matrix on a matrix DD, applying
	// Options.Noise exactly as a superoperator — one run replaces
	// thousands of averaged trajectories. Approximation strategies and
	// reordering are statevector-only; density sessions require exact
	// simulation under the identity order.
	BackendDensity Backend = "density"
)

// Backends lists the valid backend names (the serve request schema).
func Backends() []Backend { return []Backend{BackendStatevector, BackendDensity} }

// initBackend wires the session's representation-specific state: the density
// state for BackendDensity, and the per-qubit lifted Kraus operator DDs +
// branch RNG when noise is configured on either backend. Called from init
// after the manager's variable order is settled (lifted channel DDs address
// levels through the current order).
func (ses *Session) initBackend(m *dd.Manager, c *circuit.Circuit, opts Options) error {
	switch opts.Backend {
	case "", BackendStatevector:
	case BackendDensity:
		if _, ok := ses.strategy.(core.Exact); !ok {
			return fmt.Errorf("sim: density backend requires exact simulation (strategy %q is statevector-only)", ses.strategy.Name())
		}
		ses.den = density.NewBasis(m, c.NumQubits, opts.InitialState)
	default:
		return fmt.Errorf("sim: unknown backend %q (known: %v)", opts.Backend, Backends())
	}
	if opts.Noise != nil {
		ch, err := opts.Noise.Channel()
		if err != nil {
			return err
		}
		ses.channel = ch
		if !ch.Identity() {
			ses.chanDDs = make([][]dd.MEdge, c.NumQubits)
			for q := 0; q < c.NumQubits; q++ {
				ses.chanDDs[q] = ch.Lift(m, c.NumQubits, q)
			}
			if ses.den == nil {
				ses.noiseRNG = rand.New(rand.NewSource(opts.Noise.Seed))
			}
		}
	}
	return nil
}

// curSize returns the node count of the live state under either backend.
func (ses *Session) curSize() int {
	if ses.den != nil {
		return ses.sim.M.CountM(ses.den.Root)
	}
	return ses.sim.M.CountV(ses.state)
}

// applyVector is the statevector half of step: apply op (if any) to the
// state, renormalize, reject a vanished state, and sample noise branches.
func (ses *Session) applyVector(i int, g circuit.Gate, op dd.MEdge) error {
	m := ses.sim.M
	if op.N != nil {
		ses.state = m.MulVec(op, ses.state)
	}
	ses.state = m.NormalizeRootWeight(ses.state)
	if m.IsVZero(ses.state) {
		return fmt.Errorf("sim: state vanished after gate %d (%s)", i, g.String())
	}
	if ses.chanDDs != nil {
		return ses.injectNoise(i, g)
	}
	return nil
}

// applyDensity is the density half of step: ρ → U ρ U† for op (if any),
// reject a vanished state, and apply the noise channel exactly as a
// superoperator on every qubit g touched.
func (ses *Session) applyDensity(i int, g circuit.Gate, op dd.MEdge) error {
	m := ses.sim.M
	if op.N != nil {
		ses.den.ApplyUnitary(op)
	}
	if m.IsMZero(ses.den.Root) {
		return fmt.Errorf("sim: density state vanished after gate %d (%s)", i, g.String())
	}
	if ses.chanDDs == nil {
		return nil
	}
	for _, q := range gateTouches(g) {
		ses.den.ApplyKraus(ses.chanDDs[q])
		ses.res.ChannelApplications++
		ses.obs.OnChannel(core.ChannelEvent{
			GateIndex: i,
			Qubit:     q,
			Kind:      string(ses.channel.Kind()),
			Strength:  ses.channel.P(),
			Branch:    -1,
			Size:      m.CountM(ses.den.Root),
		})
	}
	return nil
}

// injectNoise applies one sampled Kraus branch per touched qubit to the
// statevector — the trajectory unraveling of the channel the density backend
// applies exactly. Mixed-unitary channels sample their state-independent
// branch probabilities directly; otherwise (amplitude damping) branch
// probabilities are the post-application norms p_k = |W(K_k|ψ⟩)|², the
// quantum-jump method. Applying the un-normalized Kraus DD and renormalizing
// the root weight is equivalent to applying the branch unitary (the √p_k
// prefactor lands in the root weight), so one code path serves both cases.
func (ses *Session) injectNoise(gateIdx int, g circuit.Gate) error {
	m := ses.sim.M
	for _, q := range gateTouches(g) {
		ops := ses.chanDDs[q]
		branch := 0
		if probs, ok := ses.channel.MixedUnitary(); ok {
			r := ses.noiseRNG.Float64()
			for branch = 0; branch < len(probs)-1; branch++ {
				if r < probs[branch] {
					break
				}
				r -= probs[branch]
			}
			ses.state = m.MulVec(ops[branch], ses.state)
		} else {
			branches := make([]dd.VEdge, len(ops))
			total := 0.0
			probs := make([]float64, len(ops))
			for k, op := range ops {
				branches[k] = m.MulVec(op, ses.state)
				probs[k] = branches[k].W.Abs2()
				total += probs[k]
			}
			if total == 0 {
				return fmt.Errorf("sim: all noise branches vanished after gate %d", gateIdx)
			}
			r := ses.noiseRNG.Float64() * total
			for branch = 0; branch < len(ops)-1; branch++ {
				if r < probs[branch] {
					break
				}
				r -= probs[branch]
			}
			ses.state = branches[branch]
		}
		ses.state = m.NormalizeRootWeight(ses.state)
		if m.IsVZero(ses.state) {
			return fmt.Errorf("sim: state vanished in noise branch %d after gate %d", branch, gateIdx)
		}
		if branch != 0 {
			ses.res.ChannelApplications++
			ses.obs.OnChannel(core.ChannelEvent{
				GateIndex: gateIdx,
				Qubit:     q,
				Kind:      string(ses.channel.Kind()),
				Strength:  ses.channel.P(),
				Branch:    branch,
				Size:      m.CountV(ses.state),
			})
		}
	}
	return nil
}
