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
	// valueShift is log2 of the number of Values allocated per chunk.
	valueShift = 10
	valueChunk = 1 << valueShift
	// blockShift is log2 of a block's side in cells: the slot array is
	// indexed by 8×8 blocks of grid cells, and a cell's position within its
	// block takes 2·blockShift = 6 bits.
	blockShift = 3
	blockMask  = 1<<blockShift - 1
	offsetBits = 2 * blockShift
	offsetMask = 1<<offsetBits - 1
)

// slot is one entry of the open-addressed block array. fp holds the high
// bits of the value's block hash above its cell's 6-bit offset within the
// block; ref is the value's interning position plus one, so the zero slot is
// empty. Slots hold no pointers, so the garbage collector never scans the
// array. The cell itself is not stored: every interned value lies in the
// cell it is filed under, so a fingerprint match is confirmed by re-deriving
// key(v.Re, v.Im).
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

// blockOffset splits one cell coordinate into its block coordinate (floor
// division by the block side) and its offset within the block.
func blockOffset(c int64) (block int64, off uint64) {
	return c >> blockShift, uint64(c) & blockMask
}

// fingerprint is the slot fingerprint of packed cell p: block-hash bits 38
// to 63 above the cell offset. Two slots of one block differ only in the
// offset bits.
func fingerprint(p uint64) uint32 {
	return uint32(p>>32)&^offsetMask | uint32(p)&offsetMask
}

// Table interns complex values on a tolerance grid. The zero value is not
// usable; construct with NewTable. A table belongs to one goroutine (each DD
// manager owns its own), so it takes no locks.
type Table struct {
	tol float64

	// slots is a power-of-two open-addressed array indexed by block hash,
	// probed linearly and kept at most half full. Values are never removed,
	// so there are no tombstones.
	slots []slot
	mask  uint64

	// chunks hold the interned values in interning order, Zero and One
	// first, valueChunk to a chunk; a slot's ref-1 indexes them directly.
	// packed holds each value's packed cell (see LookupFloat) in the same
	// order, so growth refiles the slots without reading a value. Values
	// and packed cells hold no pointers, so the garbage collector scans only
	// the few chunk headers.
	chunks [][]Value
	packed []uint64

	// Canonical values. Zero and One are used pervasively by the DD engine
	// for pointer-identity fast paths.
	Zero *Value
	One  *Value

	lookups, outOfRange int64
}

// NewTable returns a table with DefaultTolerance.
func NewTable() *Table { return NewTableTol(DefaultTolerance) }

// NewTableTol returns a table with the given tolerance. tol must be positive.
func NewTableTol(tol float64) *Table {
	if tol <= 0 {
		panic("cnum: tolerance must be positive")
	}
	t := &Table{
		tol:    tol,
		slots:  make([]slot, initialSlots),
		mask:   initialSlots - 1,
		packed: make([]uint64, 0, initialSlots/2),
	}
	t.Zero = t.Lookup(0)
	t.One = t.Lookup(1)
	return t
}

// Size returns the number of interned values. A table never shrinks, so
// this is also its high-water mark.
func (t *Table) Size() int { return len(t.packed) }

// Stats returns lookup and hit counters. Both counters are monotonic over
// the table lifetime, so callers measuring one run take deltas.
func (t *Table) Stats() (lookups, hits int64) {
	// Every miss interned exactly one value, and values are never removed.
	return t.lookups, t.lookups - int64(len(t.packed))
}

// OutOfRange returns how many lookups had a coordinate whose magnitude, in
// units of the tolerance, is at least 2^63: its grid cell is past the int64
// range, so the float-to-int conversion forming the cell is
// implementation-dependent. It only counts; such lookups are served as
// before. Monotonic like Stats.
func (t *Table) OutOfRange() int64 { return t.outOfRange }

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
	// key(re, im), with the scaled coordinates checked against the int64
	// range on the way.
	sr, si := re/t.tol, im/t.tol
	if math.Abs(sr) >= 0x1p63 || math.Abs(si) >= 0x1p63 {
		t.outOfRange++
	}
	k := cellKey{int64(math.Round(sr)), int64(math.Round(si))}
	// Pack k as its block hash with the low six bits replaced by k's offset
	// in the block. Every cell of a block starts its probe at the same slot,
	// so one linear-probe run holds the whole block.
	br, or := blockOffset(k.re)
	bi, oi := blockOffset(k.im)
	p := cellHash(cellKey{br, bi})&^offsetMask | or<<blockShift | oi
	fp := fingerprint(p)
	for i := p >> offsetBits & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s.ref == 0 {
			return t.lookupSlow(k, p, re, im)
		}
		if s.fp == fp {
			if v := t.value(s.ref); t.key(v.Re, v.Im) == k {
				return v
			}
		}
	}
}

// lookupSlow handles the exact-cell miss of cell k, packed as p: neighbour
// probing, canonical constant snapping, and interning a new value.
func (t *Table) lookupSlow(k cellKey, p uint64, re, im float64) *Value {
	// A value within tol of an existing one may round to any of the 8
	// neighbouring cells, formed with wrapping int64 arithmetic. They lie in
	// k's block, or in two blocks on a block edge and four at a block
	// corner: scan each block's probe run once, collecting the neighbours'
	// values in (dr, di) order.
	var near [9]*Value
	r0, r1 := (k.re-1)>>blockShift, (k.re+1)>>blockShift
	i0, i1 := (k.im-1)>>blockShift, (k.im+1)>>blockShift
	t.scanBlock(k, p, cellKey{r0, i0}, &near)
	if i1 != i0 {
		t.scanBlock(k, p, cellKey{r0, i1}, &near)
	}
	if r1 != r0 {
		t.scanBlock(k, p, cellKey{r1, i0}, &near)
		if i1 != i0 {
			t.scanBlock(k, p, cellKey{r1, i1}, &near)
		}
	}
	for _, v := range near {
		if v != nil && math.Abs(v.Re-re) <= t.tol && math.Abs(v.Im-im) <= t.tol {
			return v
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
	return t.insert(Value{Re: re, Im: im, hash: cellHash(k)}, p)
}

// scanBlock scans block b's probe run and records in near[(dr+1)*3+di+1]
// the value filed under cell k+(dr, di), for every such cell in b. Cell k,
// packed as p, is empty, so near[4] stays nil.
func (t *Table) scanBlock(k cellKey, p uint64, b cellKey, near *[9]*Value) {
	h := p &^ offsetMask // k's own block reuses k's hash
	if b != (cellKey{k.re >> blockShift, k.im >> blockShift}) {
		h = cellHash(b) &^ offsetMask
	}
	tag := fingerprint(h)
	for i := h >> offsetBits & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s.ref == 0 {
			return
		}
		if s.fp&^offsetMask != tag {
			continue
		}
		c := cellKey{b.re<<blockShift | int64(s.fp>>blockShift&blockMask), b.im<<blockShift | int64(s.fp&blockMask)}
		dr, di := uint64(c.re-k.re+1), uint64(c.im-k.im+1)
		if dr > 2 || di > 2 {
			continue
		}
		// A tag match may come from another block; the key check rejects it.
		if v := t.value(s.ref); t.key(v.Re, v.Im) == c {
			near[dr*3+di] = v
		}
	}
}

// value returns the value at interning position ref-1.
func (t *Table) value(ref uint32) *Value {
	i := ref - 1
	return &t.chunks[i>>valueShift][i&(valueChunk-1)]
}

// insert interns v, whose cell, packed as p, is known to be empty. It
// doubles the slot array and refiles every value once the table passes half
// load.
func (t *Table) insert(v Value, p uint64) *Value {
	n := len(t.packed)
	if n&(valueChunk-1) == 0 {
		t.chunks = append(t.chunks, make([]Value, valueChunk))
	}
	w := &t.chunks[n>>valueShift][n&(valueChunk-1)]
	*w = v
	t.packed = append(t.packed, p)
	if 2*len(t.packed) > len(t.slots) {
		t.slots = make([]slot, 2*len(t.slots))
		t.mask = uint64(len(t.slots) - 1)
		for i, q := range t.packed {
			t.place(q, uint32(i+1))
		}
	} else {
		t.place(p, uint32(len(t.packed)))
	}
	return w
}

// place files ref in the first empty slot of packed cell p's probe run.
func (t *Table) place(p uint64, ref uint32) {
	i := p >> offsetBits & t.mask
	for t.slots[i].ref != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = slot{fp: fingerprint(p), ref: ref}
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
