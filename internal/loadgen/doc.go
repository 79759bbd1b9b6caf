// Package loadgen is the cluster latency and throughput harness behind
// `make bench-cluster`: it boots a local simd cluster (router + K backends
// on loopback listeners), drives phase-timed open-loop sweeps of exact GHZ
// jobs over qubit counts at an offered request rate, and reports p50/p95/p99
// end-to-end job latency, achieved throughput, and per-phase cluster cache
// hit rate for both routing modes (content-hash affinity and round-robin).
//
// The resulting Report (schema bench-cluster/v1, written to
// BENCH_cluster.json by cmd/loadgen) is gated by scripts/benchsummary
// -check: hash-affinity routing must beat round-robin on cache hit rate,
// and p99 latency must stay within a calibration-adjusted envelope of the
// committed baseline. Calibrate is the shared CPU-speed probe that makes
// the cross-machine latency comparison meaningful.
package loadgen
