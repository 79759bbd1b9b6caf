// Package cluster is the coordinator/router tier that shards the simd
// simulation service horizontally: a stateless HTTP router that
// consistent-hashes submissions by their canonical circuit content hash
// (serve.CanonicalHash) across N simd backends, so each backend's
// content-addressed result cache stays naturally partition-hot — identical
// circuits always land on the same backend, and aggregate cache hit rate
// scales with the cluster instead of diluting across it. The router reads
// each body whole and keeps a serve.BodyMemo (a constant 4096 entries) from
// the SHA-256 of the body bytes to that hash, so a repeated body is routed
// without being decoded, parsed or hashed again.
//
// The router layers three concerns over the hash ring:
//
//   - Membership: every backend is probed on /healthz at a fixed interval
//     and marked down/up with hysteresis (MarkDownAfter consecutive
//     failures, MarkUpAfter consecutive successes), with transport errors
//     during proxying counted as passive probe failures.
//   - Failover and backpressure: a submission whose primary backend is
//     marked down (or fails at the transport level) is rerouted to the next
//     backend on the ring; a backend's queue-full 503 is NOT failed over —
//     it is backpressure, propagated to the caller as retriable with its
//     Retry-After intact, preserving hash affinity.
//   - Load shedding: when no backend on the ring is reachable the router
//     sheds the submission with a retriable 503 ("no_backend") instead of
//     queueing unboundedly.
//
// Job ids returned through the router are prefixed with the owning
// backend's name ("b0.job-000042"), which keeps the router stateless: every
// job-scoped request (status, result, events, cancel) routes by parsing the
// prefix, and the SSE event stream is proxied through with flushing. The
// prefix is spliced into a 2xx status body after its leading {"id":" (serve
// encodes the id first); the rest of the body, result included, is relayed
// byte for byte and never decoded.
// GET /v1/cluster/stats aggregates per-backend health, queue depth, cache
// hit rate, and utilization with the router's own routed/rerouted/shed
// counters.
package cluster
