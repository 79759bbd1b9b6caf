package dd

import (
	"math"
	"math/rand"
	"testing"
)

// The gate-application benchmarks exercise the memory-system hot path:
// compute-cache lookups (warm), unique-table lookups and node construction
// (cold), and the Cleanup mark/sweep. They use only the dd API so the same
// file benchmarks any manager implementation.

// benchState builds a dense random 12-qubit state (fixed seed) plus a
// Hadamard gate DD on the middle qubit.
func benchState(b *testing.B, m *Manager) (VEdge, MEdge) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	n := 12
	vec := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range vec {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		vec[i] = complex(re, im)
		norm += re*re + im*im
	}
	for i := range vec {
		vec[i] /= complex(math.Sqrt(norm), 0)
	}
	e, err := m.FromAmplitudes(vec)
	if err != nil {
		b.Fatal(err)
	}
	h := m.MakeGateDD(n, [4]complex128{
		complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0),
		complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0),
	}, 6)
	return e, h
}

// BenchmarkGateApplicationWarm measures the cache-hit path: after the first
// two iterations the state cycles and every recursive step is a compute-cache
// and unique-table hit.
func BenchmarkGateApplicationWarm(b *testing.B) {
	m := New()
	state, h := benchState(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = m.MulVec(h, state)
	}
}

// BenchmarkGateApplicationCold measures the cache-miss path: caches are
// cleared every iteration so each gate application recomputes the full
// recursion, stressing unique-table lookups and node construction.
func BenchmarkGateApplicationCold(b *testing.B) {
	m := New()
	state, h := benchState(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClearCaches()
		state = m.MulVec(h, state)
	}
}

// BenchmarkGateCircuitFresh runs a fixed 80-gate random Clifford+T layer
// sequence on 10 qubits against a fresh manager per iteration, measuring the
// from-scratch cost including node allocation.
func BenchmarkGateCircuitFresh(b *testing.B) {
	type gate struct {
		u      [4]complex128
		target int
		ctrl   []Control
	}
	rng := rand.New(rand.NewSource(3))
	n := 10
	gateH := [4]complex128{
		complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0),
		complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0),
	}
	gateT := [4]complex128{1, 0, 0, complex(1/math.Sqrt2, 1/math.Sqrt2)}
	gateX := [4]complex128{0, 1, 1, 0}
	gates := make([]gate, 80)
	for i := range gates {
		switch rng.Intn(3) {
		case 0:
			gates[i] = gate{u: gateH, target: rng.Intn(n)}
		case 1:
			gates[i] = gate{u: gateT, target: rng.Intn(n)}
		default:
			t := rng.Intn(n)
			c := rng.Intn(n - 1)
			if c >= t {
				c++
			}
			gates[i] = gate{u: gateX, target: t, ctrl: []Control{PosControl(c)}}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New()
		state := m.BasisState(n, 0)
		for _, g := range gates {
			op := m.MakeGateDD(n, g.u, g.target, g.ctrl...)
			state = m.MulVec(op, state)
			state = m.NormalizeRootWeight(state)
		}
		if m.IsVZero(state) {
			b.Fatal("state vanished")
		}
	}
}

// BenchmarkGateCleanupCycle measures a build-then-Cleanup cycle on a reused
// manager: with node pooling the steady state recycles every node and the
// sweep allocates nothing.
func BenchmarkGateCleanupCycle(b *testing.B) {
	m := New()
	rng := rand.New(rand.NewSource(9))
	n := 10
	vec := make([]complex128, 1<<uint(n))
	for i := range vec {
		vec[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := m.FromAmplitudes(vec)
		if err != nil {
			b.Fatal(err)
		}
		m.Cleanup(nil, nil)
		_ = e
	}
}

// BenchmarkGateLevel applies a Hadamard to the top qubit and to qubit 0 of a
// 16-qubit state (a random 12-qubit state under |+⟩ on the top four), caches
// cleared every iteration. Below its target a gate is the identity, so the
// top-level gate touches a handful of nodes while the level-0 gate walks the
// whole state.
func BenchmarkGateLevel(b *testing.B) {
	const n, low = 16, 12
	rng := rand.New(rand.NewSource(5))
	vec := make([]complex128, 1<<n)
	for i := 0; i < 1<<low; i++ {
		vec[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for i := 1 << low; i < len(vec); i++ {
		vec[i] = vec[i&(1<<low-1)]
	}
	h := [4]complex128{
		complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0),
		complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0),
	}
	for _, tc := range []struct {
		name   string
		target int
	}{{"top", n - 1}, {"level0", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			m := New()
			state, err := m.FromAmplitudes(vec)
			if err != nil {
				b.Fatal(err)
			}
			op := m.MakeGateDD(n, h, tc.target)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ClearCaches()
				state = m.MulVec(op, state)
			}
		})
	}
}
