package cnum

import "math"

// DefaultTolerance is the grid spacing used to decide when two floating-point
// complex values are considered the same weight. It matches the order of
// magnitude used by production DD packages: large enough to absorb rounding
// drift from long gate sequences, small enough not to merge distinct
// amplitudes of the circuits under study.
const DefaultTolerance = 1e-10

type cellKey struct{ re, im int64 }

const (
	// initialSlots is the slot count of a fresh table: room for 512 values
	// before the first growth. Must be a power of two.
	initialSlots = 1024
	// valueChunk is the number of Values allocated per chunk.
	valueChunk = 1024
)

// slot is one entry of the open-addressed cell array. fp is the high half of
// the value's cell hash; ref is its position in Table.vals plus one, so the
// zero slot is empty. Slots hold no pointers, so the garbage collector never
// scans the array. The cell itself is not stored: every interned value lies
// in the cell it is filed under, so a fingerprint match is confirmed by
// re-deriving key(v.Re, v.Im).
type slot struct{ fp, ref uint32 }

// cellHash derives the canonical Value hash from the grid cell alone. Two
// tables at the same tolerance therefore assign equal hashes to equal
// weights regardless of interning order — the "canonical-hash bridge" that
// keeps DD node hashes, and hence every downstream structure, bit-identical
// across managers and worker counts.
func cellHash(k cellKey) uint64 {
	h := Mix64(uint64(k.re) ^ 0x9E3779B97F4A7C15)
	return Mix64(h + uint64(k.im))
}

// Table interns complex values on a tolerance grid. The zero value is not
// usable; construct with NewTable. A table belongs to one goroutine (each DD
// manager owns its own), so it takes no locks.
type Table struct {
	tol float64

	// slots is a power-of-two open-addressed array indexed by cell hash,
	// probed linearly and kept at most half full. vals lists the interned
	// values in interning order, Zero and One first. Values are never
	// removed, so there are no tombstones.
	slots []slot
	mask  uint64
	vals  []*Value

	// Canonical values. Zero and One are used pervasively by the DD engine
	// for pointer-identity fast paths.
	Zero *Value
	One  *Value

	// Values are allocated in chunks of valueChunk.
	chunk     []Value
	chunkNext int

	lookups int64
}

// NewTable returns a table with DefaultTolerance.
func NewTable() *Table { return NewTableTol(DefaultTolerance) }

// NewTableTol returns a table with the given tolerance. tol must be positive.
func NewTableTol(tol float64) *Table {
	if tol <= 0 {
		panic("cnum: tolerance must be positive")
	}
	t := &Table{
		tol:   tol,
		slots: make([]slot, initialSlots),
		mask:  initialSlots - 1,
		vals:  make([]*Value, 0, initialSlots/2),
	}
	t.Zero = t.Lookup(0)
	t.One = t.Lookup(1)
	return t
}

// Tolerance returns the table tolerance.
func (t *Table) Tolerance() float64 { return t.tol }

// Size returns the number of interned values. A table never shrinks, so
// this is also its high-water mark.
func (t *Table) Size() int { return len(t.vals) }

// Stats returns lookup and hit counters. Both counters are monotonic over
// the table lifetime, so callers measuring one run take deltas.
func (t *Table) Stats() (lookups, hits int64) {
	// Every miss interned exactly one value, and values are never removed.
	return t.lookups, t.lookups - int64(len(t.vals))
}

func (t *Table) key(re, im float64) cellKey {
	return cellKey{int64(math.Round(re / t.tol)), int64(math.Round(im / t.tol))}
}

// CanonicalHash returns the hash a value interned for c would carry. It
// depends only on the tolerance grid cell, never on interning order, so
// separate tables at the same tolerance can compare weights by hash.
func (t *Table) CanonicalHash(c complex128) uint64 {
	re, im := real(c), imag(c)
	if re == 0 {
		re = 0
	}
	if im == 0 {
		im = 0
	}
	return cellHash(t.key(re, im))
}

// Lookup interns c and returns the canonical Value pointer. Values within the
// tolerance of an already-interned value return the existing pointer; the
// neighbouring grid cells are also probed so values straddling a cell
// boundary still unify.
func (t *Table) Lookup(c complex128) *Value {
	return t.LookupFloat(real(c), imag(c))
}

// LookupFloat is Lookup for separate real/imaginary parts.
func (t *Table) LookupFloat(re, im float64) *Value {
	t.lookups++
	// Canonicalize signed zeros so -0.0 and +0.0 intern identically.
	if re == 0 {
		re = 0
	}
	if im == 0 {
		im = 0
	}
	k := t.key(re, im)
	if v := t.find(k); v != nil {
		return v
	}
	return t.lookupSlow(k, re, im)
}

// find returns the value filed under cell k, or nil.
func (t *Table) find(k cellKey) *Value {
	h := cellHash(k)
	fp := uint32(h >> 32)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s.ref == 0 {
			return nil
		}
		if s.fp == fp {
			if v := t.vals[s.ref-1]; t.key(v.Re, v.Im) == k {
				return v
			}
		}
	}
}

// lookupSlow handles the exact-cell miss: neighbour probing, canonical
// constant snapping, and interning a new value.
func (t *Table) lookupSlow(k cellKey, re, im float64) *Value {
	// Probe the 8 neighbouring cells: a value within tol of an existing one
	// may round to an adjacent cell.
	for dr := int64(-1); dr <= 1; dr++ {
		for di := int64(-1); di <= 1; di++ {
			if dr == 0 && di == 0 {
				continue
			}
			v := t.find(cellKey{k.re + dr, k.im + di})
			if v != nil && math.Abs(v.Re-re) <= t.tol && math.Abs(v.Im-im) <= t.tol {
				return v
			}
		}
	}
	// Snap near-exact constants so canonical values keep pointer identity.
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
	v := t.allocValue()
	*v = Value{Re: re, Im: im, hash: cellHash(k)}
	t.insert(v)
	return v
}

// insert files v, whose cell is known to be absent, doubling the slot array
// and refiling every value once the table passes half load.
func (t *Table) insert(v *Value) {
	t.vals = append(t.vals, v)
	if 2*len(t.vals) > len(t.slots) {
		t.slots = make([]slot, 2*len(t.slots))
		t.mask = uint64(len(t.slots) - 1)
		for i, w := range t.vals {
			t.place(w.hash, uint32(i+1))
		}
	} else {
		t.place(v.hash, uint32(len(t.vals)))
	}
}

// place files ref in the first empty slot of hash's probe sequence.
func (t *Table) place(hash uint64, ref uint32) {
	i := hash & t.mask
	for t.slots[i].ref != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = slot{fp: uint32(hash >> 32), ref: ref}
}

// allocValue hands out the next Value of the current chunk.
func (t *Table) allocValue() *Value {
	if t.chunkNext == len(t.chunk) {
		t.chunk = make([]Value, valueChunk)
		t.chunkNext = 0
	}
	v := &t.chunk[t.chunkNext]
	t.chunkNext++
	return v
}

// Mix64 is the SplitMix64 finalizer: a cheap bijective mixer whose output
// bits all depend on all input bits. The table uses it to spread grid-cell
// coordinates into well-distributed Value hashes, and the decision-diagram
// tables reuse it to finish their combined key hashes.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// IsZero reports whether v is the canonical zero of this table.
func (t *Table) IsZero(v *Value) bool { return v == t.Zero }

// IsOne reports whether v is the canonical one of this table.
func (t *Table) IsOne(v *Value) bool { return v == t.One }
