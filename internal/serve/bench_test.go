package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/qasm"
)

// BenchmarkCanonicalHash times the router's routing key on the QASM front
// end's benchmark sources (BenchmarkQASMParse in internal/qasm): a 16-qubit,
// 400-gate Clifford+T export and a 14-qubit QFT export, each submitted with
// shots and a seed as serve-hot submits them.
func BenchmarkCanonicalHash(b *testing.B) {
	for _, c := range []struct {
		name string
		circ *circuit.Circuit
	}{
		{"cliffordt16x400", gen.CliffordT(16, 400, 8, 1)},
		{"qft14", gen.QFT(14)},
	} {
		src, err := qasm.Export(c.circ)
		if err != nil {
			b.Fatal(err)
		}
		req := JobRequest{Name: c.name, QASM: src, Shots: 256, Seed: 1}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CanonicalHash(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResultDecode times decoding a serve-hot-shaped result payload:
// 256 shots of a 16-qubit circuit spread over nearly as many outcomes, as
// a 400-gate Clifford+T export gives, decoded with json.Unmarshal as the
// client and perfbench decode every result.
func BenchmarkResultDecode(b *testing.B) {
	raw, err := json.Marshal(hotPayload())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		var p ResultPayload
		if err := json.Unmarshal(raw, &p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatusDecode times the client's decode of a serve-hot-shaped
// cache hit: the status body writeStatus writes around hotPayload, through
// DecodeStatus as client.Submit decodes it.
func BenchmarkStatusDecode(b *testing.B) {
	body := statusSeeds(b)[0]
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var st JobStatus
		if err := DecodeStatus(body, &st); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPayload is a 16-qubit, 256-shot exact-run payload whose outcomes are
// drawn uniformly from a fixed seed.
func hotPayload() ResultPayload {
	rng := rand.New(rand.NewPCG(1, 2))
	samples := make(map[string]int)
	for range 256 {
		samples[fmt.Sprintf("%016b", rng.IntN(1<<16))]++
	}
	return ResultPayload{
		NumQubits: 16, GateCount: 400, Strategy: StrategyExact, ResolvedStrategy: StrategyExact,
		Backend: "statevector", Seed: 4001, MaxDDSize: 2047, FinalDDSize: 1535,
		EstimatedFidelity: 1, FidelityBound: 1, Samples: samples, RuntimeMS: 38.5,
		DD: DDStats{VNodesCreated: 91234, MNodesCreated: 1873, CacheHits: 40211, CacheMisses: 60113, ComplexValues: 4096},
	}
}
