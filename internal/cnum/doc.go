// Package cnum provides an interning table for complex edge weights used by
// decision diagrams.
//
// Decision-diagram canonicity requires that numerically equal (within a
// tolerance) complex values are represented by the same object, so that node
// equality can be decided by pointer comparison. The design follows the
// complex-number tables of Zulehner, Hillmich, and Wille ("How to efficiently
// handle complex values? Implementing decision diagrams for quantum
// computing", ICCAD 2019): values are bucketed on a tolerance grid and looked
// up before insertion, probing the neighbouring cells so values straddling a
// cell edge still unify.
//
// The grid lives in one flat, power-of-two, open-addressed slot array with
// linear probing, kept at most half full. It is indexed by 8×8 blocks of
// grid cells, not by single cells: every cell of a block starts its probe at
// the block hash's slot, so one linear-probe run holds the whole block. A
// slot holds a 32-bit fingerprint (block-hash bits above the cell's 6-bit
// offset within its block) and the value's interning position, which
// indexes the table's value chunks directly; it holds no pointer, so the
// garbage collector never scans it. A lookup that misses its own cell reads
// its eight neighbours from the same run: one run when the cell is inside
// its block, two on a block edge, four at a block corner, instead of nine
// probes scattered over the array. A per-value array of packed block hashes
// and offsets lets growth refile the slots without touching the values.
// Each DD manager owns its own table and uses it from one goroutine, so the
// table takes no locks and its counters are plain fields.
//
// Every interned Value carries a stable 64-bit hash derived from its
// tolerance-grid cell (Value.Hash): equal weights hash equally in every
// table at the same tolerance, independent of interning order. The dd
// package combines these with node ids to key its unique tables and compute
// caches, keeping all hashing independent of pointer values and therefore
// deterministic across runs and worker counts. Values are allocated in
// chunks and live as long as their table: a table only grows, and a DD
// manager with its table is dropped whole when its job ends. The table also
// tracks lookup/hit counters (Stats) and counts lookups whose grid cell
// lies past the int64 range (OutOfRange); sim surfaces both per run as
// weight-table pressure and numeric health.
package cnum
