package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/atlas"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/qasm"
	"repro/internal/sim"
)

// Strategy names serve itself interprets. Every other name in
// JobRequest.Strategy goes to the core.RegisterStrategy registry ("memory",
// "fidelity", "replace", "reorder", and any name a caller registers), with
// its parameters passed via JobRequest.StrategyParams — this is how
// user-defined strategies become reachable over HTTP.
const (
	StrategyExact = "exact"
	// StrategyAuto classifies the submitted circuit by gate mix
	// (gen.Classify) and installs the committed approximability-atlas winner
	// for its workload class (internal/atlas, docs/ATLAS.md). It resolves
	// before hashing, so an auto submission shares its cache entry — and its
	// byte-identical payload — with an explicit submission of the winning
	// configuration; ResultPayload.ResolvedStrategy reports what was
	// installed. Auto takes no parameters and only runs noiseless
	// statevector jobs (the atlas is measured there).
	StrategyAuto = "auto"
)

// GateSpec is one gate of an inline circuit submission.
type GateSpec struct {
	// Name is a gate from the standard set the circuit IR accepts (h, x,
	// cx via controls, rz, u, ...), or "measure"/"reset".
	Name string `json:"name"`
	// Params are the gate's rotation angles, when it takes any.
	Params []float64 `json:"params,omitempty"`
	// Target is the target qubit (bit Target of the basis-state index).
	Target int `json:"target"`
	// Controls and NegControls list positive and negative control qubits.
	Controls    []int `json:"controls,omitempty"`
	NegControls []int `json:"neg_controls,omitempty"`
}

// JobRequest is the submission body accepted by POST /v1/jobs. Exactly one
// of QASM or (Qubits, Gates) describes the circuit.
type JobRequest struct {
	// Name labels the job in listings; it does not affect results or
	// caching.
	Name string `json:"name,omitempty"`

	// QASM is an OpenQASM 2.0 program (barriers become block boundaries).
	QASM string `json:"qasm,omitempty"`
	// Qubits and Gates describe an inline circuit.
	Qubits int        `json:"qubits,omitempty"`
	Gates  []GateSpec `json:"gates,omitempty"`
	// Blocks lists gate indices after which a block boundary sits (the
	// fidelity-driven strategy places approximation rounds at boundaries).
	Blocks []int `json:"blocks,omitempty"`

	// Strategy selects the approximation mode: "exact" (default),
	// "memory" (Section IV-B), "fidelity" (Section IV-C), "auto", or any
	// name registered through core.RegisterStrategy.
	Strategy string `json:"strategy,omitempty"`
	// StrategyParams carries the strategy's JSON parameters verbatim to
	// its registered factory, e.g. {"threshold":4096,"round_fidelity":0.99}
	// for "memory" (core.MemoryDrivenParams). Unknown keys are rejected.
	StrategyParams json.RawMessage `json:"strategy_params,omitempty"`

	// Backend selects the state representation: "statevector" (the
	// default) or "density" (exact noisy simulation on a density matrix).
	// A submission that sets noise but leaves the backend empty runs on
	// the density backend; "statevector" with noise runs one seeded
	// quantum-trajectory sample instead.
	Backend string `json:"backend,omitempty"`
	// Noise names a built-in channel applied after every gate to each
	// touched qubit: depolarizing, amplitude_damping, dephasing, bit_flip,
	// or phase_flip. Empty means noiseless.
	Noise string `json:"noise,omitempty"`
	// NoiseParams parameterizes the channel: "p" (or "gamma", the
	// amplitude-damping spelling) is the channel strength in [0,1], "seed"
	// seeds trajectory branch sampling on the statevector backend.
	NoiseParams map[string]float64 `json:"noise_params,omitempty"`

	// InitialState selects the starting basis state |InitialState⟩.
	InitialState uint64 `json:"initial_state,omitempty"`
	// Shots draws that many samples from the final state (0 = none).
	Shots int `json:"shots,omitempty"`
	// Seed seeds mid-circuit measurements and sampling. 0 derives a stable
	// seed from the submission's content hash, so identical submissions
	// yield identical samples even across cache evictions.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS bounds the simulation in milliseconds; 0 uses the server
	// default. The timeout does not participate in the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// DecodeRequest decodes a POST /v1/jobs body the way simd and the cluster
// router both do: one JSON object, unknown fields rejected.
func DecodeRequest(body []byte) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding submission: %w", err)
	}
	return req, nil
}

// maxPresize caps the buffer ReadBody sizes from a declared length, so a
// false Content-Length costs at most this much before any byte arrives.
const maxPresize = 64 << 10

// ReadBody reads r to EOF like io.ReadAll, into a buffer presized to
// min(declared, limit, 64 KiB): declared is the body's Content-Length (-1
// when absent) and limit the most the caller's reader yields. Past that
// size, or without a declared length, the buffer grows as io.ReadAll's
// does. ReadBody enforces no bound: the caller's http.MaxBytesReader or
// io.LimitReader does, and its error is returned as read.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	n := min(declared, limit, maxPresize)
	if n <= 0 {
		return io.ReadAll(r)
	}
	// One spare byte lets the read that meets EOF land without growing a
	// buffer the declared length filled exactly.
	b := make([]byte, 0, n+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// compiled is a validated submission ready for the pool.
type compiled struct {
	req     JobRequest // canonical form (ResolveRun)
	circuit *circuit.Circuit
	hash    string // hex sha256 over circuit + result-relevant options
	timeout time.Duration

	// opts is what the job runs under: ResolveRun's strategy (built and
	// Init'ed), backend and noise, plus the initial state and the resolved
	// measurement/sampling seed (never 0).
	opts sim.Options
}

// resolveCircuit builds the submission's circuit IR from whichever of the
// two circuit encodings (QASM, inline gates) the request carries.
func resolveCircuit(req JobRequest) (*circuit.Circuit, error) {
	switch {
	case req.QASM != "" && len(req.Gates) > 0:
		return nil, fmt.Errorf("submission carries both qasm and inline gates; pick one")
	case req.QASM != "":
		prog, err := qasm.Parse(req.QASM, req.Name)
		if err != nil {
			return nil, fmt.Errorf("qasm: %w", err)
		}
		return prog.Circuit, nil
	case len(req.Gates) > 0:
		return buildInline(req)
	default:
		return nil, fmt.Errorf("submission carries no circuit (set qasm or qubits+gates)")
	}
}

// CanonicalHash resolves a submission's content address: the hex sha256 over
// the canonical circuit encoding and every result-relevant option — the same
// key the in-server result cache stores under. It applies no server limits,
// so routing tiers (the cluster router, hash-affine clients) can compute the
// key for any well-formed submission without owning a Server; a request this
// function rejects would be rejected by every backend too.
func CanonicalHash(req JobRequest) (string, error) {
	circ, req, err := resolve(req)
	if err != nil {
		return "", err
	}
	return contentHash(circ, req), nil
}

// resolve builds the submission's circuit and brings its run request to
// canonical form: the half of ResolveRun that builds no strategy, which is
// all the routing tier needs for the key.
func resolve(req JobRequest) (*circuit.Circuit, JobRequest, error) {
	circ, err := resolveCircuit(req)
	if err != nil {
		return nil, req, err
	}
	if req, _, err = resolveAuto(circ, req); err != nil {
		return nil, req, err
	}
	req, _, err = canonicalize(req)
	return circ, req, err
}

// ResolveRun is the one place a run request becomes something to run: the
// strategy with its parameters (or auto), the backend, and the noise with
// its parameters. It rewrites auto into the committed atlas winner for the
// circuit's class, builds and Inits the strategy through the core registry,
// parses the noise, defaults the backend (density when noise is set,
// statevector otherwise) and requires the density backend to run exact.
// It returns the request in canonical form (what the content hash covers),
// the resulting sim.Options (Strategy, Backend, Noise) and, for auto, a
// description of the installed winner ("" otherwise). The simulation
// service compiles every submission through it and cmd/ddsim resolves its
// flags through it, so both accept and reject the same runs.
func ResolveRun(circ *circuit.Circuit, req JobRequest) (JobRequest, sim.Options, string, error) {
	req, auto, err := resolveAuto(circ, req)
	if err != nil {
		return req, sim.Options{}, "", err
	}
	st, err := core.NewStrategyByName(req.Strategy, req.StrategyParams)
	if err != nil {
		return req, sim.Options{}, "", err
	}
	if err := st.Init(circ.Len(), circ.Blocks()); err != nil {
		return req, sim.Options{}, "", err
	}
	req, noise, err := canonicalize(req)
	if err != nil {
		return req, sim.Options{}, "", err
	}
	backend := sim.Backend(req.Backend)
	if _, exact := st.(core.Exact); backend == sim.BackendDensity && !exact {
		// The density backend evolves ρ exactly; approximation strategies
		// rewrite statevector DDs and cannot run on it.
		return req, sim.Options{}, "", fmt.Errorf("backend %q requires the exact strategy, got %q", backend, req.Strategy)
	}
	return req, sim.Options{Strategy: st, Backend: backend, Noise: noise}, auto, nil
}

// resolveAuto rewrites a strategy=auto request into the committed atlas
// winner for the circuit's workload class and describes the choice; other
// requests pass through. It runs before hashing, so an auto submission is
// indistinguishable (hash, cache entry, result payload) from explicitly
// submitting the winning configuration.
func resolveAuto(circ *circuit.Circuit, req JobRequest) (JobRequest, string, error) {
	if req.Strategy != StrategyAuto {
		return req, "", nil
	}
	if len(req.StrategyParams) > 0 {
		return req, "", fmt.Errorf("strategy %q picks its own parameters; strategy_params may not be set", StrategyAuto)
	}
	if req.Noise != "" || sim.Backend(req.Backend) == sim.BackendDensity {
		return req, "", fmt.Errorf("strategy %q resolves from the noiseless statevector atlas; noisy or density jobs must pick a strategy explicitly", StrategyAuto)
	}
	class := gen.Classify(circ)
	win := atlas.Resolve(class)
	req.Strategy = win.Strategy
	if win.Params != "" {
		req.StrategyParams = json.RawMessage(win.Params)
	}
	label := strings.TrimSpace(win.Base + " " + win.Params)
	return req, fmt.Sprintf("class=%s -> %s (order=%s)", class, label, win.Order), nil
}

// canonicalize parses the request's noise and rewrites the request to its
// canonical form, so that semantically identical submissions hash
// identically. The empty backend spells out as the effective one: density
// for noisy jobs (exact noisy results are what a noise-carrying submission
// asks for; trajectory sampling is the explicit statevector+noise opt-in),
// statevector otherwise. Noise parameters collapse to their parsed form, so
// the "gamma" spelling of amplitude damping hashes like "p". The default
// strategy spells out as "exact", whose only accepted parameters (empty,
// null, {}) all mean the same run, and other strategies' parameters take
// encoding/json's compact form, so whitespace and a client's re-marshal do
// not split a cache entry.
func canonicalize(req JobRequest) (JobRequest, *sim.NoiseModel, error) {
	var noise *sim.NoiseModel
	switch {
	case req.Noise != "":
		n, err := sim.ParseNoise(req.Noise, req.NoiseParams)
		if err != nil {
			return req, nil, err
		}
		noise = &n
		req.Noise = string(n.Kind)
		req.NoiseParams = map[string]float64{"p": n.P}
		if n.Seed != 0 {
			req.NoiseParams["seed"] = float64(n.Seed)
		}
	case len(req.NoiseParams) > 0:
		return req, nil, fmt.Errorf("noise_params given without noise")
	default:
		req.NoiseParams = nil
	}
	switch sim.Backend(req.Backend) {
	case "":
		req.Backend = string(sim.BackendStatevector)
		if noise != nil {
			req.Backend = string(sim.BackendDensity)
		}
	case sim.BackendStatevector, sim.BackendDensity:
	default:
		return req, nil, fmt.Errorf("unknown backend %q (have %v)", req.Backend, sim.Backends())
	}
	if req.Strategy == "" || req.Strategy == StrategyExact {
		req.Strategy, req.StrategyParams = StrategyExact, nil
	} else if len(req.StrategyParams) > 0 {
		if params, err := json.Marshal(req.StrategyParams); err == nil {
			req.StrategyParams = params
		}
	}
	return req, noise, nil
}

// compile validates the request against the server limits and resolves the
// circuit, the run (ResolveRun), content hash, and seed.
func (s *Server) compile(req JobRequest) (*compiled, error) {
	circ, err := resolveCircuit(req)
	if err != nil {
		return nil, err
	}
	if max := s.cfg.MaxQubits; max > 0 && circ.NumQubits > max {
		return nil, fmt.Errorf("circuit has %d qubits, above the server limit of %d", circ.NumQubits, max)
	}
	if req.Shots < 0 {
		return nil, fmt.Errorf("shots %d must be ≥ 0", req.Shots)
	}
	if max := s.cfg.MaxShots; max > 0 && req.Shots > max {
		return nil, fmt.Errorf("shots %d above the server limit of %d", req.Shots, max)
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d must be ≥ 0", req.TimeoutMS)
	}
	// Building and Init'ing the strategy here makes a bad submission fail
	// with a 400 instead of a failed job; the job then runs this instance.
	req, opts, _, err := ResolveRun(circ, req)
	if err != nil {
		return nil, err
	}
	c := &compiled{req: req, circuit: circ, opts: opts}
	c.hash = contentHash(circ, req)
	c.opts.InitialState = req.InitialState
	c.opts.MeasurementSeed = req.Seed
	if c.opts.MeasurementSeed == 0 {
		c.opts.MeasurementSeed = seedFromHash(c.hash)
	}
	c.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	if c.timeout == 0 {
		c.timeout = s.cfg.DefaultJobTimeout
	}
	return c, nil
}

func buildInline(req JobRequest) (*circuit.Circuit, error) {
	if req.Qubits <= 0 {
		return nil, fmt.Errorf("inline circuit needs qubits ≥ 1, got %d", req.Qubits)
	}
	for i, b := range req.Blocks {
		if b < 0 || b >= len(req.Gates) {
			return nil, fmt.Errorf("block boundary %d outside gate range [0,%d)", b, len(req.Gates))
		}
		if i > 0 && b <= req.Blocks[i-1] {
			return nil, fmt.Errorf("block boundaries must be strictly increasing")
		}
	}
	c := circuit.New(req.Qubits, req.Name)
	next := 0
	for i, g := range req.Gates {
		if err := appendGate(c, g); err != nil {
			return nil, fmt.Errorf("gate %d: %w", i, err)
		}
		// EndBlock marks a boundary after the most recent gate, so replay
		// the requested boundaries in step with appending.
		if next < len(req.Blocks) && req.Blocks[next] == i {
			c.EndBlock()
			next++
		}
	}
	return c, nil
}

func appendGate(c *circuit.Circuit, g GateSpec) (err error) {
	// The IR panics on out-of-range qubits; surface that as a request error.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	switch g.Name {
	case "":
		return fmt.Errorf("missing gate name")
	case "measure":
		c.Measure(g.Target)
		return nil
	case "reset":
		c.Reset(g.Target)
		return nil
	}
	controls := make([]dd.Control, 0, len(g.Controls)+len(g.NegControls))
	for _, q := range g.Controls {
		controls = append(controls, dd.PosControl(q))
	}
	for _, q := range g.NegControls {
		controls = append(controls, dd.NegControl(q))
	}
	// Validate the gate name eagerly: Apply stores it, but an unknown name
	// would only fail at simulation time.
	if _, err := circuit.Matrix1Q(g.Name, g.Params); err != nil {
		return err
	}
	c.Apply(g.Name, g.Params, g.Target, controls...)
	return nil
}

// contentHash is the content-addressing key: sha256 over the canonical
// circuit encoding plus every result-relevant option of the canonical
// request (canonicalize). Job name and timeout are excluded (they cannot
// change the result payload); an explicit seed is included, while seed 0
// hashes as 0 and then derives deterministically from this very hash, so
// the derived seed never makes identical submissions diverge.
func contentHash(c *circuit.Circuit, req JobRequest) string {
	// A gate's canonical encoding averages 9-16 bytes on the generator
	// families (a parameter-free gate takes 6-10, a one-parameter
	// one-control gate 19), so the buffer is sized once from the length.
	b := make([]byte, 0, 128+16*c.Len()+len(req.StrategyParams))
	b = append(b, "repro-serve-v3\x00"...)
	b = c.AppendCanonical(b)
	b = append(b, req.Strategy...)
	b = append(b, 0)
	b = append(b, req.Backend...)
	b = append(b, 0)
	b = append(b, req.Noise...)
	b = append(b, 0)
	// canonicalize collapsed NoiseParams to at most {"p", "seed"};
	// hashing the two fixed keys keeps the encoding order-independent.
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(req.NoiseParams["p"]))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(req.NoiseParams["seed"]))
	b = binary.BigEndian.AppendUint64(b, req.InitialState)
	b = binary.BigEndian.AppendUint64(b, uint64(req.Shots))
	b = binary.BigEndian.AppendUint64(b, uint64(req.Seed))
	// strategy_params hash verbatim (length-prefixed): two submissions
	// with byte-identical params share the entry; differently spelt but
	// equivalent params address different entries, which costs at most a
	// duplicate cache slot, never a wrong hit.
	b = binary.BigEndian.AppendUint64(b, uint64(len(req.StrategyParams)))
	b = append(b, req.StrategyParams...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// seedFromHash derives a non-zero measurement seed from the content hash, so
// seedless submissions are reproducible by content alone.
func seedFromHash(hash string) int64 {
	raw, _ := hex.DecodeString(hash[:16])
	seed := int64(binary.BigEndian.Uint64(raw))
	if seed == 0 {
		seed = 1
	}
	return seed
}
