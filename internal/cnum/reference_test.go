package cnum

import (
	"math"
	"math/rand"
	"testing"
)

// This file retains the original map-based weight table as a reference
// implementation: one Go map from grid cell to value, with the same
// exact-cell probe, neighbour probing, Zero/One snapping and counters as the
// production Table. The differential test below drives both with the same
// value streams and asserts the same representative after every call, so
// any divergence introduced by the open-addressed slot array (probe order,
// growth, hash-match confirmation) shows up at once.

type refTable struct {
	tol       float64
	cells     map[cellKey]*Value
	Zero, One *Value

	lookups, misses int64
	size            int
}

func newRefTable(tol float64) *refTable {
	t := &refTable{tol: tol, cells: make(map[cellKey]*Value)}
	t.Zero = t.LookupFloat(0, 0)
	t.One = t.LookupFloat(1, 0)
	return t
}

func (t *refTable) key(re, im float64) cellKey {
	return cellKey{int64(math.Round(re / t.tol)), int64(math.Round(im / t.tol))}
}

func (t *refTable) LookupFloat(re, im float64) *Value {
	t.lookups++
	if re == 0 {
		re = 0
	}
	if im == 0 {
		im = 0
	}
	k := t.key(re, im)
	if v, ok := t.cells[k]; ok {
		return v
	}
	for dr := int64(-1); dr <= 1; dr++ {
		for di := int64(-1); di <= 1; di++ {
			if dr == 0 && di == 0 {
				continue
			}
			v, ok := t.cells[cellKey{k.re + dr, k.im + di}]
			if ok && math.Abs(v.Re-re) <= t.tol && math.Abs(v.Im-im) <= t.tol {
				return v
			}
		}
	}
	if math.Abs(re) <= t.tol && math.Abs(im) <= t.tol {
		if t.Zero != nil {
			return t.Zero
		}
		re, im = 0, 0
	} else if math.Abs(re-1) <= t.tol && math.Abs(im) <= t.tol {
		if t.One != nil {
			return t.One
		}
		re, im = 1, 0
	}
	v := &Value{Re: re, Im: im, hash: cellHash(k)}
	t.cells[k] = v
	t.misses++
	t.size++
	return v
}

// valueStream draws lookups that stress the table's edge cases: fresh random
// values, values a hair either side of a cell edge, values within tol of
// Zero and One, signed zeros, values in cells at the first or last offset
// of their 8×8 block (so neighbourhoods span one, two or four blocks),
// values whose cell overflows int64, and exact or perturbed repeats of
// earlier inputs (which land in the same or a neighbouring cell).
type valueStream struct {
	rng  *rand.Rand
	tol  float64
	seen [][2]float64
}

func (s *valueStream) next() (float64, float64) {
	var re, im float64
	edge := func() float64 {
		n := float64(s.rng.Intn(2001) - 1000)
		return (n + 0.5 + (s.rng.Float64()-0.5)*1e-6) * s.tol
	}
	// blockEdge returns a value in a cell at block offset 0 or 7 (or in the
	// block's interior), on either sign, jittered up to 0.6 cells so it may
	// round into the next block. Few blocks are drawn, so neighbours across
	// a block edge recur.
	blockEdge := func() float64 {
		m := int64(1000 + s.rng.Intn(4))
		if s.rng.Intn(2) == 0 {
			m = -m
		}
		off := [...]int64{0, 7, 1 + int64(s.rng.Intn(6))}[s.rng.Intn(3)]
		return (float64(8*m+off) + (s.rng.Float64()-0.5)*1.2) * s.tol
	}
	switch s.rng.Intn(10) {
	case 0, 1:
		re, im = s.rng.Float64()*4-2, s.rng.Float64()*4-2
	case 2:
		re, im = edge(), edge()
	case 3:
		re, im = (s.rng.Float64()*2-1)*1.5*s.tol, (s.rng.Float64()*2-1)*1.5*s.tol
	case 4:
		re, im = 1+(s.rng.Float64()*2-1)*1.5*s.tol, (s.rng.Float64()*2-1)*1.5*s.tol
	case 5:
		re, im = math.Copysign(0, -1), math.Copysign(0, float64(s.rng.Intn(2)*2-1))
		if s.rng.Intn(2) == 0 {
			re = 1
		}
	case 8:
		re, im = blockEdge(), blockEdge()
	case 9:
		// |re|/tol of 1e19 to 1e20 is past 2^63 ≈ 9.2e18.
		re, im = (1+s.rng.Float64()*9)*1e19*s.tol, s.rng.Float64()*4-2
		if s.rng.Intn(2) == 0 {
			re = -re
		}
		if s.rng.Intn(2) == 0 {
			re, im = im, re
		}
	default:
		if len(s.seen) == 0 {
			return 0.5, -0.5
		}
		p := s.seen[s.rng.Intn(len(s.seen))]
		re, im = p[0], p[1]
		if s.rng.Intn(2) == 0 {
			re += (s.rng.Float64()*2 - 1) * 1.2 * s.tol
			im += (s.rng.Float64()*2 - 1) * 1.2 * s.tol
		}
	}
	s.seen = append(s.seen, [2]float64{re, im})
	return re, im
}

// TestTableMatchesReference drives the production table and the map-based
// reference through the same streams, across many slot-array growths, at the
// default tolerance and at a coarse one where neighbour hits are frequent.
// Each epoch starts a fresh production/reference pair; the stream carries
// on, so later epochs still repeat and perturb earlier inputs.
func TestTableMatchesReference(t *testing.T) {
	for _, tol := range []float64{DefaultTolerance, 1e-2} {
		s := &valueStream{rng: rand.New(rand.NewSource(11)), tol: tol}
		for epoch := 0; epoch < 12; epoch++ {
			tb, ref := NewTableTol(tol), newRefTable(tol)
			checkSame(t, tb, ref)
			// The two tables' pointers must correspond one to one, as a
			// representative is the same object on every return.
			pair := map[*Value]*Value{ref.Zero: tb.Zero, ref.One: tb.One}
			n := 200 << (epoch % 7) // up to 12800 lookups: several growths
			for i := 0; i < n; i++ {
				re, im := s.next()
				got, want := tb.LookupFloat(re, im), ref.LookupFloat(re, im)
				if got.Re != want.Re || got.Im != want.Im || got.Hash() != want.Hash() {
					t.Fatalf("tol %g epoch %d: Lookup(%v, %v) = %v (hash %x), reference %v (hash %x)",
						tol, epoch, re, im, got, got.Hash(), want, want.Hash())
				}
				if (got == tb.Zero) != (want == ref.Zero) || (got == tb.One) != (want == ref.One) {
					t.Fatalf("tol %g: Lookup(%v, %v) canonical constant identity differs", tol, re, im)
				}
				if p, ok := pair[want]; ok && p != got {
					t.Fatalf("tol %g: Lookup(%v, %v) returned a second object for one representative", tol, re, im)
				}
				pair[want] = got
				checkSame(t, tb, ref)
			}
		}
	}
}

func checkSame(t *testing.T, tb *Table, ref *refTable) {
	t.Helper()
	l, h := tb.Stats()
	if tb.Size() != ref.size || l != ref.lookups || h != ref.lookups-ref.misses {
		t.Fatalf("Size/Stats = %d/%d,%d, reference %d/%d,%d",
			tb.Size(), l, h, ref.size, ref.lookups, ref.lookups-ref.misses)
	}
}
