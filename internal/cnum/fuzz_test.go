package cnum

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzBytes decodes a lookup stream from fuzz input; reads past the end
// yield zeros.
type fuzzBytes []byte

func (b *fuzzBytes) uint(n int) uint64 {
	var buf [8]byte
	k := copy(buf[:n], *b)
	*b = (*b)[k:]
	return binary.LittleEndian.Uint64(buf[:])
}

// frac returns a signed fraction in [-1, 1).
func (b *fuzzBytes) frac() float64 { return float64(int8(b.uint(1))) / 128 }

// coord decodes one coordinate: an opcode byte, then its operands.
func (b *fuzzBytes) coord(tol float64, seen []float64) float64 {
	switch b.uint(1) % 7 {
	case 0: // any float64, NaN and ±Inf included
		return math.Float64frombits(b.uint(8))
	case 1: // signed zero
		return math.Copysign(0, b.frac())
	case 2: // a hair either side of a cell edge
		return (float64(int16(b.uint(2))) + 0.5 + b.frac()*1e-6) * tol
	case 3: // a cell at block offset 0 or 7, jittered up to 0.6 cells
		cell := 8*float64(int16(b.uint(2))) + 7*float64(b.uint(1)&1)
		return (cell + b.frac()*0.6) * tol
	case 4: // past the int64 key range: |x|/tol from 1e19 to 9e19
		return (1 + float64(b.uint(1))/32) * 1e19 * tol * math.Copysign(1, b.frac())
	case 5: // within 1.5 tol of One's real part
		return 1 + b.frac()*1.5*tol
	default: // an earlier coordinate, shifted by up to 1.2 tol
		if len(seen) == 0 {
			return 0.5
		}
		return seen[b.uint(2)%uint64(len(seen))] + b.frac()*1.2*tol
	}
}

// FuzzWeightTable drives the production Table and the map-based refTable
// (reference_test.go) with one lookup stream decoded from the fuzz input. The
// first byte picks the tolerance (1e-10 or a coarse 1e-2); each lookup then
// decodes its two coordinates independently. After every call both tables
// must return the same representative (Re, Im, Hash, with NaN equal to NaN),
// agree on Zero/One identity, map one representative to one object, and
// report equal Size and Stats.
func FuzzWeightTable(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 0, 0, 0, 2, 0, 0, 0, 6, 0, 0, 10, 6, 0, 0, 246})
	f.Add([]byte{0, 3, 1, 0, 1, 0, 3, 255, 255, 0, 0, 3, 1, 0, 1, 70, 3, 0, 0, 0, 186})
	f.Add([]byte{0, 4, 7, 0, 0, 0, 4, 200, 128, 4, 7, 128, 1, 128, 6, 0, 0, 1, 4, 1, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 248, 127, 0, 0, 0, 0, 0, 0, 240, 127, 5, 100, 1, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		tol := DefaultTolerance
		if in.uint(1)&1 == 1 {
			tol = 1e-2
		}
		tb, ref := NewTableTol(tol), newRefTable(tol)
		pair := map[*Value]*Value{ref.Zero: tb.Zero, ref.One: tb.One}
		var seen []float64
		same := func(a, b float64) bool { return a == b || a != a && b != b }
		for n := 0; len(in) > 0 && n < 4096; n++ {
			re := in.coord(tol, seen)
			im := in.coord(tol, seen)
			seen = append(seen, re, im)
			got, want := tb.LookupFloat(re, im), ref.LookupFloat(re, im)
			if !same(got.Re, want.Re) || !same(got.Im, want.Im) || got.Hash() != want.Hash() {
				t.Fatalf("tol %g: Lookup(%v, %v) = %v (hash %x), reference %v (hash %x)",
					tol, re, im, got, got.Hash(), want, want.Hash())
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
	})
}
