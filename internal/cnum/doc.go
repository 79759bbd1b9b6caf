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
// linear probing, kept at most half full. A slot holds a 32-bit fingerprint
// of the cell hash and the value's position in the table's value list; it
// holds no pointer, so the garbage collector never scans it. Each DD manager
// owns its own table and uses it from one goroutine, so the table takes no
// locks and its counters are plain fields.
//
// Every interned Value carries a stable 64-bit hash derived from its
// tolerance-grid cell (Value.Hash): equal weights hash equally in every
// table at the same tolerance, independent of interning order. The dd
// package combines these with node ids to key its unique tables and compute
// caches, keeping all hashing independent of pointer values and therefore
// deterministic across runs and worker counts. Values are allocated in
// chunks and live as long as their table: a table only grows, and a DD
// manager with its table is dropped whole when its job ends. The table also
// tracks lookup/hit counters (Stats), which sim surfaces per run as
// weight-table pressure.
package cnum
