package shor

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
)

// FactorResult reports the classical post-processing over samples from the
// (possibly approximate) final state.
type FactorResult struct {
	// Factor1, Factor2 are the recovered non-trivial factors (0 if none).
	Factor1, Factor2 uint64
	// Success reports whether the factors were recovered from any sample.
	Success bool
	// Shots is the number of samples drawn.
	Shots int
	// OrderHits counts samples whose phase led to a verified order.
	OrderHits int
	// FactorHits counts samples that produced non-trivial factors.
	FactorHits int
}

// SuccessRate returns the per-shot factoring success fraction.
func (r FactorResult) SuccessRate() float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.FactorHits) / float64(r.Shots)
}

// PostProcess runs the classical part of Shor on samples drawn from the
// final state: for each sample, extract the counting value y, recover a
// candidate order via continued fractions, and try to split N. This is the
// step the paper performs to validate that 50 % fidelity still factors
// correctly ("we were able to correctly factorize the numbers given in the
// benchmarks by performing the non-quantum postprocessing steps").
func (in *Instance) PostProcess(res *sim.Result, shots int, rng *rand.Rand) FactorResult {
	out := FactorResult{Shots: shots}
	Q := uint64(1) << uint(in.CountingQubits())
	for i := 0; i < shots; i++ {
		sample := res.Manager.Sample(res.Final, in.Qubits, rng)
		y := in.ExtractCounting(sample)
		r, ok := OrderFromPhase(y, Q, in.A, in.N)
		if !ok {
			continue
		}
		out.OrderHits++
		f1, f2, ok := FactorsFromOrder(in.A, r, in.N)
		if !ok {
			continue
		}
		out.FactorHits++
		if !out.Success {
			out.Factor1, out.Factor2, out.Success = f1, f2, true
		}
	}
	return out
}

// RunOptions configures an end-to-end Shor run.
type RunOptions struct {
	// FinalFidelity / RoundFidelity configure the fidelity-driven strategy;
	// FinalFidelity = 1 (or 0) disables approximation (exact run).
	FinalFidelity float64
	RoundFidelity float64
	// Shots drawn from the final state for post-processing (default 128).
	Shots int
	// Seed for sampling.
	Seed int64
	// CollectSizeHistory forwards to sim.Options.
	CollectSizeHistory bool
}

// Outcome bundles the simulation result and the factoring post-processing.
// Instance and Sim are nil when Factor splits N classically (an even N, a
// prime power, or a random base sharing a factor with N): no circuit ran.
type Outcome struct {
	Instance *Instance
	Sim      *sim.Result
	Factors  FactorResult
}

// Run builds the circuit, simulates it (exactly or fidelity-driven), samples
// the final state and post-processes the samples into factors.
func (in *Instance) Run(opts RunOptions) (*Outcome, error) {
	c := in.BuildCircuit()
	simOpts := sim.Options{CollectSizeHistory: opts.CollectSizeHistory}
	if opts.FinalFidelity > 0 && opts.FinalFidelity < 1 {
		if opts.RoundFidelity <= 0 {
			return nil, fmt.Errorf("shor: round fidelity required with final fidelity %v", opts.FinalFidelity)
		}
		strat := core.NewFidelityDriven(opts.FinalFidelity, opts.RoundFidelity)
		// Spread the rounds across the inverse QFT (the paper's placement):
		// the DD size peaks early in the IQFT, so covering the whole region
		// caps the peak far better than clustering rounds at the end.
		strat.Locations = in.IQFTBoundaries(c)
		simOpts.Strategy = strat
	}
	res, err := sim.Run(c, simOpts)
	if err != nil {
		return nil, err
	}
	shots := opts.Shots
	if shots <= 0 {
		shots = 128
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	return &Outcome{
		Instance: in,
		Sim:      res,
		Factors:  in.PostProcess(res, shots, rng),
	}, nil
}

// Factor is the top-level convenience: run Shor's classical preprocessing
// (reject primes, peel off even and perfect-power factors), then try random
// coprime bases until the quantum order-finding (simulated with the given
// options) yields a non-trivial split. The base sequence is deterministic
// per seed.
func Factor(n uint64, opts RunOptions) (*Outcome, error) {
	switch class, f1, f2 := Classify(n); class {
	case ClassTooSmall:
		return nil, fmt.Errorf("shor: N = %d too small to factor", n)
	case ClassPrime:
		return nil, fmt.Errorf("shor: N = %d is prime", n)
	case ClassEven, ClassPrimePower:
		return &Outcome{
			Factors: FactorResult{Factor1: f1, Factor2: f2, Success: true},
		}, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for attempt := 0; attempt < 16; attempt++ {
		a := 2 + rng.Uint64()%(n-3)
		if g := Gcd(a, n); g != 1 {
			// Lucky classical factor; report it without simulation.
			return &Outcome{
				Factors: FactorResult{Factor1: g, Factor2: n / g, Success: true},
			}, nil
		}
		in, err := NewInstance(n, a)
		if err != nil {
			return nil, err
		}
		out, err := in.Run(opts)
		if err != nil {
			return nil, err
		}
		if out.Factors.Success {
			return out, nil
		}
	}
	return nil, fmt.Errorf("shor: failed to factor %d in 16 attempts", n)
}
