package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/qasm"
	"repro/internal/serve"
	"repro/internal/shor"
	"repro/internal/supremacy"
)

// The job streams below are pure functions of the workload seed. The seed
// picks instances (circuit seeds, marked elements, graphs, angles), never the
// mix: every run of a workload has the same classes in the same proportions,
// so its cost does not swing with the seed.

// paperJob is one library job of the paper workload.
type paperJob struct {
	Name    string
	Circuit *circuit.Circuit
	// Strategy builds the job's fresh strategy; nil runs exact.
	Strategy func() core.Strategy
	// FinalFidelity is the f_final a fidelity-driven job must guarantee
	// (0 for the other strategies).
	FinalFidelity float64
}

// Paper-workload instance pools. The seed draws from these finite pools so
// that every job it can generate has a reference in reference.json.
const (
	supPool       = 8  // 4x4 supremacy circuit seeds 0..7
	supPerList    = 4  // supremacy circuits per job list
	groverQubits  = 12 // Grover width in the job list
	groverPool    = 8  // marked elements groverMarked(0..7)
	groverPerList = 2
	canaryQubits  = 14 // the Grover canary's width (see README)
)

// Table I shapes: fidelity-driven Shor at f_final 0.5, f_round 0.9, and
// memory-driven supremacy at the paper's three round fidelities.
var (
	shorCases    = [][2]uint64{{33, 5}, {55, 2}, {35, 2}}
	supFrounds   = []float64{0.99, 0.975, 0.95}
	supDepth     = 14
	supThreshold = 4096
	supBudget    = `{"node_budget":4096,"fidelity_floor":0.9}`
	shorFinal    = 0.5
	shorRound    = 0.9
)

// groverMarked returns the i-th marked element, i < 16, of the Grover pool
// on n qubits. Many marked elements (every even one tried, and about one odd
// one in fifteen at 12 qubits) hit the canary's defect: the DD turns dense
// and one job takes tens of seconds. The pool holds elements that each run
// in a fraction of a second; the defect is the canary's to report.
func groverMarked(i, n int) uint64 { return uint64(1443+1954*i) % (1 << uint(n)) }

// paperPool returns every job the paper workload can generate, the pool
// reference.json covers.
func paperPool() ([]paperJob, error) {
	var jobs []paperJob
	for s := 0; s < supPool; s++ {
		mem, rep, err := supremacyJobs(int64(s))
		if err != nil {
			return nil, err
		}
		jobs = append(append(jobs, rep), mem...)
	}
	for i := 0; i < groverPool; i++ {
		jobs = append(jobs, groverJob(groverQubits, groverMarked(i, groverQubits)))
	}
	sj, err := shorJobs()
	if err != nil {
		return nil, err
	}
	return append(jobs, sj...), nil
}

// paperJobs returns the seeded job list one pass of the paper workload runs:
// four supremacy circuits under three memory-driven round fidelities and
// node replacement, two Grover searches and three Shor instances, all
// fidelity-driven. Jobs are ordered longest class first so two workers end a
// pass close together.
func paperJobs(seed int64) ([]paperJob, error) {
	rng := rand.New(rand.NewSource(seed))
	var jobs, memory []paperJob
	for _, s := range rng.Perm(supPool)[:supPerList] {
		mem, rep, err := supremacyJobs(int64(s))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, rep) // replace rounds cost the most: first
		memory = append(memory, mem...)
	}
	jobs = append(jobs, memory...)
	sj, err := shorJobs()
	if err != nil {
		return nil, err
	}
	jobs = append(jobs, sj...)
	for _, i := range rng.Perm(groverPool)[:groverPerList] {
		jobs = append(jobs, groverJob(groverQubits, groverMarked(i, groverQubits)))
	}
	return jobs, nil
}

// supremacyJobs returns one 4x4 supremacy circuit under the memory-driven
// round fidelities and under node replacement.
func supremacyJobs(seed int64) (memory []paperJob, replace paperJob, err error) {
	cfg := supremacy.Config{Rows: 4, Cols: 4, Depth: supDepth, Seed: seed}
	c, err := cfg.Generate()
	if err != nil {
		return nil, paperJob{}, err
	}
	for _, fr := range supFrounds {
		memory = append(memory, paperJob{
			Name:    fmt.Sprintf("%s/memory-%g", cfg.Name(), fr),
			Circuit: c,
			Strategy: func() core.Strategy {
				return &core.MemoryDriven{Threshold: supThreshold, RoundFidelity: fr, Growth: 2}
			},
		})
	}
	replace = paperJob{
		Name:     cfg.Name() + "/replace",
		Circuit:  c,
		Strategy: registryStrategy("replace", supBudget),
	}
	return memory, replace, nil
}

func shorJobs() ([]paperJob, error) {
	var jobs []paperJob
	for _, na := range shorCases {
		in, err := shor.NewInstance(na[0], na[1])
		if err != nil {
			return nil, err
		}
		c := in.BuildCircuit()
		locs := in.IQFTBoundaries(c)
		jobs = append(jobs, paperJob{
			Name:    in.Name() + "/fidelity",
			Circuit: c,
			Strategy: func() core.Strategy {
				s := core.NewFidelityDriven(shorFinal, shorRound)
				s.Locations = locs
				return s
			},
			FinalFidelity: shorFinal,
		})
	}
	return jobs, nil
}

func groverJob(n int, marked uint64) paperJob {
	return paperJob{
		Name:    fmt.Sprintf("grover_%d_%d/fidelity", n, marked),
		Circuit: gen.Grover(n, marked, 0),
		Strategy: func() core.Strategy {
			return core.NewFidelityDriven(shorFinal, shorRound)
		},
		FinalFidelity: shorFinal,
	}
}

// canaryJobs are the known-defect canary, each run under a deadline: Grover
// at 14 qubits, exact and fidelity-driven, and Grover at 12 qubits with an
// even marked element. At 13 qubits (odd marked element) the same search
// ends in a fraction of a second with a few dozen nodes; in these three the
// DD stops merging equal amplitudes and the jobs run into their deadlines.
func canaryJobs() []paperJob {
	exact := groverJob(canaryQubits, groverMarked(0, canaryQubits))
	exact.Name = fmt.Sprintf("grover_%d_%d/exact", canaryQubits, groverMarked(0, canaryQubits))
	exact.Strategy, exact.FinalFidelity = nil, 0
	return []paperJob{exact, groverJob(canaryQubits, groverMarked(0, canaryQubits)), groverJob(groverQubits, 90)}
}

func registryStrategy(name, params string) func() core.Strategy {
	return func() core.Strategy {
		s, err := core.NewStrategyByName(name, json.RawMessage(params))
		if err != nil {
			panic(fmt.Sprintf("strategy %s %s: %v", name, params, err)) // a bug in the tables above
		}
		return s
	}
}

// mixTemplate is one slot of the serve-mix cycle.
type mixTemplate struct {
	class    string // generator family, see mixCircuit
	strategy string
	params   string // strategy_params JSON, empty for none
	inline   bool   // inline gate list instead of QASM
}

const (
	mixShots   = 128
	siftParams = `{"order":"scored","sift":true,"sift_threshold":64}`
)

// mixCycle is the serve-mix job mix, repeated in order: the atlas classes
// under every strategy the service offers, as QASM or inline gate lists.
// Grover and supremacy circuits go inline only: QASM 2.0 has no 9-control Z,
// and qasm.Parse rejects the sy gate qasm.Export writes for supremacy.
var mixCycle = []mixTemplate{
	{"qft", "exact", "", false},
	{"grover12", "fidelity", `{"final_fidelity":0.9,"round_fidelity":0.98}`, true},
	{"supremacy", "memory", `{"threshold":256,"round_fidelity":0.98,"growth":2}`, true},
	{"supremacy", "replace", `{"node_budget":256,"fidelity_floor":0.9}`, true},
	{"supremacy4x4", "auto", "", true},
	{"pairs", "reorder", siftParams, true},
	{"pairs", "auto", "", false},
	{"qaoa", "exact", "", true},
	{"qaoa", "memory", `{"threshold":256,"round_fidelity":0.98,"growth":2}`, false},
	{"qaoa", "reorder", siftParams, true},
	{"vqe", "exact", "", false},
	{"vqe", "replace", `{"node_budget":512,"fidelity_floor":0.9}`, true},
	{"vqe", "auto", "", false},
	{"cliffordt", "fidelity", `{"final_fidelity":0.9,"round_fidelity":0.98}`, true},
	{"cliffordt", "reorder", `{"order":"scored","sift":true,"sift_threshold":64,"inner":"memory","inner_params":{"threshold":128,"round_fidelity":0.98}}`, false},
	{"grover", "auto", "", true},
}

// mixJob is one serve-mix submission with the circuit it encodes, kept for
// the library replay that checks the service's answer.
type mixJob struct {
	Req     serve.JobRequest
	Circuit *circuit.Circuit
}

// mixJobs returns serve-mix submissions [from, to) for the seed. Submission i
// depends only on (seed, i), so the stream can be cut anywhere.
func mixJobs(seed int64, from, to int) ([]mixJob, error) {
	out := make([]mixJob, 0, to-from)
	for i := from; i < to; i++ {
		rng := rand.New(rand.NewSource(batch.Seed(seed, i)))
		t := mixCycle[i%len(mixCycle)]
		c, initial := mixCircuit(t.class, rng)
		req := serve.JobRequest{
			Name:         fmt.Sprintf("mix-%d-%s-%s", i, t.class, t.strategy),
			Strategy:     t.strategy,
			InitialState: initial,
			Shots:        mixShots,
			Seed:         rng.Int63() + 1,
		}
		if t.params != "" {
			req.StrategyParams = json.RawMessage(t.params)
		}
		if t.inline {
			req.Qubits, req.Gates, req.Blocks = inlineGates(c)
		} else {
			src, err := qasm.Export(c)
			if err != nil {
				return nil, fmt.Errorf("mix job %d: %w", i, err)
			}
			req.QASM = src
		}
		out = append(out, mixJob{Req: req, Circuit: c})
	}
	return out, nil
}

// mixCircuit draws one circuit of a class at 10–16 qubits. Widths are fixed
// per class where the cost depends on them, so instances cost about the same.
func mixCircuit(class string, rng *rand.Rand) (*circuit.Circuit, uint64) {
	switch class {
	case "qft":
		n := 10 + rng.Intn(4)
		return gen.QFT(n), uint64(rng.Int63n(1 << uint(n)))
	case "grover", "grover12":
		n := 11
		if class == "grover12" {
			n = 12
		}
		return gen.Grover(n, groverMarked(rng.Intn(16), n), 0), 0
	case "supremacy", "supremacy4x4":
		cfg := supremacy.Config{Rows: 3, Cols: 4, Depth: 12, Seed: rng.Int63()}
		if class == "supremacy4x4" {
			cfg.Rows = 4
		}
		c, err := cfg.Generate()
		if err != nil {
			panic(err) // fixed valid dimensions
		}
		return c, 0
	case "pairs":
		return pairsCircuit(12, rng), 0
	case "qaoa":
		return gen.QAOAMaxCut(11, 1, rng.Int63()), 0
	case "vqe":
		return gen.VQEAnsatz(12, 1, gen.VQELinear, rng.Int63()), 0
	case "cliffordt":
		return gen.CliffordT(12, 200, 30, rng.Int63()), 0
	}
	panic("unknown class " + class)
}

// pairsCircuit entangles qubit pairs (Bell pairs) under a random pairing, the
// atlas "pairs" class whose exact DD depends on the variable order.
func pairsCircuit(n int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n, fmt.Sprintf("pairs_%d", n))
	p := rng.Perm(n)
	for i := 0; i+1 < n; i += 2 {
		c.Apply("h", nil, p[i])
		c.Apply("x", nil, p[i+1], dd.PosControl(p[i]))
	}
	return c
}

// inlineGates encodes a unitary circuit as an inline submission.
func inlineGates(c *circuit.Circuit) (int, []serve.GateSpec, []int) {
	gates := make([]serve.GateSpec, 0, c.Len())
	for _, g := range c.Gates() {
		spec := serve.GateSpec{Name: g.Name, Params: g.Params, Target: g.Target}
		for _, ctl := range g.Controls {
			if ctl.Positive {
				spec.Controls = append(spec.Controls, ctl.Qubit)
			} else {
				spec.NegControls = append(spec.NegControls, ctl.Qubit)
			}
		}
		gates = append(gates, spec)
	}
	return c.NumQubits, gates, c.Blocks()
}

// hotSize is the serve-hot working set: large QASM submissions at 14–16
// qubits that the service answers from its result cache. A dense 14-qubit
// VQE state fixes the largest DD in the set.
const (
	hotSize  = 8
	hotShots = 256
)

// hotJobs returns the seeded serve-hot working set.
func hotJobs(seed int64) ([]serve.JobRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]serve.JobRequest, 0, hotSize)
	for i := 0; i < hotSize; i++ {
		var c *circuit.Circuit
		var initial uint64
		switch {
		case i == hotSize-1:
			c = gen.VQEAnsatz(14, 1, gen.VQELinear, rng.Int63())
		case i%2 == 0:
			n := 14 + i/2%3
			c, initial = gen.QFT(n), uint64(rng.Int63n(1<<uint(n)))
		default:
			c = gen.CliffordT(16, 400, 8, rng.Int63())
		}
		src, err := qasm.Export(c)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, serve.JobRequest{
			Name:         fmt.Sprintf("hot-%d", i),
			QASM:         src,
			InitialState: initial,
			Shots:        hotShots,
			Seed:         rng.Int63() + 1,
		})
	}
	return reqs, nil
}
