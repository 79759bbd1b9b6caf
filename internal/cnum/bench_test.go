package cnum

import (
	"math/rand"
	"testing"
)

// BenchmarkWeightLookup measures the three paths through LookupFloat on a
// table holding 4096 random weights; one op is a pass over 4096 inputs.
// hit looks the interned weights up again; neighbour_hit shifts each by 0.9
// tol into the next cell, so only neighbour probing finds it; miss_fresh
// interns every weight into a fresh table, built outside the timed region.
func BenchmarkWeightLookup(b *testing.B) {
	const size = 4096
	rng := rand.New(rand.NewSource(1))
	vals := make([][2]float64, size)
	for i := range vals {
		vals[i] = [2]float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
	}
	fill := func() *Table {
		tb := NewTable()
		for _, p := range vals {
			tb.LookupFloat(p[0], p[1])
		}
		return tb
	}
	pass := func(tb *Table, probes [][2]float64) {
		for _, p := range probes {
			tb.LookupFloat(p[0], p[1])
		}
	}
	b.Run("hit", func(b *testing.B) {
		tb := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(tb, vals)
		}
	})
	b.Run("neighbour_hit", func(b *testing.B) {
		tb := fill()
		probes := make([][2]float64, 0, size)
		for _, p := range vals {
			q := [2]float64{p[0] + 0.9*tb.tol, p[1]}
			if tb.key(q[0], q[1]) != tb.key(p[0], p[1]) {
				probes = append(probes, q)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(tb, probes)
		}
	})
	b.Run("miss_fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tb := NewTable()
			b.StartTimer()
			pass(tb, vals)
		}
	})
}
