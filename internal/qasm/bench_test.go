package qasm

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// BenchmarkQASMParse times Parse on two exports: a 16-qubit, 400-gate
// Clifford+T circuit (~4 KB, mostly single-qubit gates and CNOTs) and a
// 14-qubit QFT (parameterized controlled phases and swaps). The perf gate
// pins its allocs/op and B/op.
func BenchmarkQASMParse(b *testing.B) {
	for _, c := range []struct {
		name string
		circ *circuit.Circuit
	}{
		{"cliffordt16x400", gen.CliffordT(16, 400, 8, 1)},
		{"qft14", gen.QFT(14)},
	} {
		src, err := Export(c.circ)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := Parse(src, c.name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
