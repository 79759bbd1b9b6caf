package dd

import "repro/internal/cnum"

// TerminalVar is the Var value of the terminal node.
const TerminalVar int32 = -1

// nodeHeader holds the fields both node kinds carry for the unique tables
// (unique.go), the garbage collector (gc.go) and the stamped walks
// (count.go). T is the node type embedding it.
type nodeHeader[T any] struct {
	id   uint64
	hash uint64 // unique-table hash of (child weights, child ids)
	next *T     // unique-table bucket chain
	gen  uint32 // GC mark stamp (== Manager.gcGen when live at last sweep)
	Var  int32  // the node's DD level; TerminalVar for the terminal
	walk uint32 // visit stamp of the last manager walk that reached the node
	ord  uint32 // the node's index in the last stamped walk that numbered it
}

func (h *nodeHeader[T]) header() *nodeHeader[T] { return h }

// VNode is a vector (state) DD node at level Var. Nodes must only be
// created through Manager.MakeVNode so that they are normalized and
// interned.
type VNode struct {
	nodeHeader[VNode]
	E [2]VEdge
}

// ID returns the node's unique creation id (stable for the Manager lifetime).
func (n *VNode) ID() uint64 { return n.id }

// Ord returns n's index in the slice returned by the last
// Manager.NumberVNodes call that reached it.
func (n *VNode) Ord() int { return int(n.ord) }

// IsTerminal reports whether n is the terminal node.
func (n *VNode) IsTerminal() bool { return n.Var == TerminalVar }

// VEdge is a weighted edge to a vector node. The zero edge is represented
// canonically as {W: table.Zero, N: terminal}.
type VEdge struct {
	W *cnum.Value
	N *VNode
}

// MNode is a matrix (operation) DD node at level Var. Children are indexed
// row-major: E[2*r+c] is the quadrant for output bit r and input bit c of
// the node's qubit. Nodes must only be created through Manager.MakeMNode.
type MNode struct {
	nodeHeader[MNode]
	E [4]MEdge
}

// IsTerminal reports whether n is the terminal node.
func (n *MNode) IsTerminal() bool { return n.Var == TerminalVar }

// MEdge is a weighted edge to a matrix node. The zero edge is represented
// canonically as {W: table.Zero, N: terminal}.
type MEdge struct {
	W *cnum.Value
	N *MNode
}

// Control describes a control qubit of a gate. Positive controls trigger on
// |1⟩, negative controls on |0⟩.
type Control struct {
	Qubit    int
	Positive bool
}

// PosControl is shorthand for a positive control on qubit q.
func PosControl(q int) Control { return Control{Qubit: q, Positive: true} }

// NegControl is shorthand for a negative control on qubit q.
func NegControl(q int) Control { return Control{Qubit: q, Positive: false} }
