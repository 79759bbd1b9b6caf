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
// hit_large and miss_large repeat hit and miss_fresh on a table of 2^17
// weights, near the size of a paper-scale job's table, whose slot array no
// longer fits in cache; one op is still a pass over 4096 inputs, spread
// over the whole table.
func BenchmarkWeightLookup(b *testing.B) {
	const size, large = 4096, 1 << 17
	rng := rand.New(rand.NewSource(1))
	vals := make([][2]float64, large)
	for i := range vals {
		vals[i] = [2]float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
	}
	fill := func(vals [][2]float64) *Table {
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
		tb := fill(vals[:size])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(tb, vals[:size])
		}
	})
	b.Run("neighbour_hit", func(b *testing.B) {
		tb := fill(vals[:size])
		probes := make([][2]float64, 0, size)
		for _, p := range vals[:size] {
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
			pass(tb, vals[:size])
		}
	})
	// Every 32nd weight of the large set: 4096 lookups spread over the table.
	spread := make([][2]float64, 0, size)
	for i := 0; i < large; i += large / size {
		spread = append(spread, vals[i])
	}
	b.Run("hit_large", func(b *testing.B) {
		tb := fill(vals)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(tb, spread)
		}
	})
	// miss_large interns those 4096 weights into a table already holding
	// 2^17 - 2·4096 others, refilled outside the timed region, so no pass
	// crosses a growth.
	b.Run("miss_large", func(b *testing.B) {
		base := make([][2]float64, 0, large-2*size)
		for i := 0; len(base) < cap(base); i++ {
			if i%(large/size) != 0 {
				base = append(base, vals[i])
			}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tb := fill(base)
			b.StartTimer()
			pass(tb, spread)
		}
	})
}
