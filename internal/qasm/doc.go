// Package qasm parses a practical subset of OpenQASM 2.0 into the circuit
// IR, so externally produced benchmark circuits can be simulated, and
// exports circuits back to OpenQASM source (Export), round-tripping through
// the same gate set.
//
// Supported: OPENQASM/include headers, qreg/creg declarations, every
// single-qubit gate of the circuit package's table under its canonical
// name or alias (x y z h s sdg t tdg sx sxdg sy sydg id i, rx ry rz p u1
// phase u2 u3 u; sy/sydg are the √Y gates Export writes for supremacy
// circuits), the multi-qubit spellings of one table (cx cy cz ch cp cu1
// crz ccx ccz swap cswap), barrier (mapped to block boundaries, which
// steer fidelity-driven approximation placement), measure (recorded but
// not simulated), and constant parameter expressions with pi, + - * /,
// unary minus and parentheses. The circuit stores canonical names, so
// Export writes p for u1 and u3 for u.
//
// Parse is one pass: tokens are substrings of the source, and each gate
// statement is appended to the circuit as soon as it is read. A lexing
// error anywhere outranks the first parse error, which outranks a missing
// qreg, which outranks the first gate the circuit cannot take.
//
// This parser is also the simulation service's QASM front door: a POST to
// /v1/jobs with a qasm body goes through Parse, so service submissions and
// library callers agree on the IR — and therefore on result-cache content
// hashes. The cluster router parses each submission too, to route it.
package qasm
