// Package verify implements DD-based equivalence checking of quantum
// circuits, the verification use case of the JKQ tool family the paper's
// simulator belongs to (Burgholzer/Wille, "Advanced equivalence checking for
// quantum circuits").
//
// Two circuits U and V over the same qubits are equivalent (up to global
// phase) iff V†·U is the identity. Building V†·U gate by gate as a matrix
// DD keeps the intermediate product close to the identity when the circuits
// are in fact equivalent, which is exactly the regime where decision
// diagrams stay small. The optimizer's tests and the QASM round-trip tests
// both lean on this check, and the root package exposes it as
// CircuitsEquivalent.
package verify
