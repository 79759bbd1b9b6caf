package serve

import (
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
