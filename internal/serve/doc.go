// Package serve turns the simulator into an asynchronous HTTP/JSON service:
// simulation-as-a-service on top of the internal/batch worker pool, so many
// callers can submit circuits — each with its own accuracy/cost trade-off —
// against one bounded set of simulation workers.
//
// The API (mounted by Server.Handler, served standalone by cmd/simd):
//
//	POST   /v1/jobs             submit a circuit (OpenQASM 2.0 source or an
//	                            inline gate list) with a per-job
//	                            approximation strategy — a builtin (exact,
//	                            memory, fidelity, replace, reorder, auto)
//	                            or any name registered via
//	                            core.RegisterStrategy, parameterized by
//	                            strategy_params JSON — plus shots, seed,
//	                            and timeout
//	GET    /v1/jobs             list submissions with their statuses
//	GET    /v1/jobs/{id}        poll one job (result attached when done)
//	GET    /v1/jobs/{id}/result fetch the raw result payload
//	GET    /v1/jobs/{id}/events stream the job's simulation events (SSE):
//	                            per-gate sizes, approximation rounds,
//	                            cleanups, then a terminal status frame
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/stats            cache, pool, and DD memory-system counters
//	GET    /healthz             liveness probe
//
// Results are content-addressed: each submission is hashed over the
// canonical circuit encoding (circuit.AppendCanonical) plus every
// result-relevant option, and finished payloads enter a bounded LRU cache.
// An identical submission — whether it arrives as the same QASM text, as
// equivalent inline gates, or from a different caller — is answered from
// the cache byte-for-byte, without occupying a worker. Seedless submissions
// derive their measurement seed from the content hash itself, so results
// are reproducible from the request alone, even after cache eviction.
// Ahead of the cache sits a BodyMemo, bounded like it by
// Config.CacheEntries: the SHA-256 of each raw body that resolved
// successfully maps to its content hash and job name, so a byte-identical
// repeat is answered from the cache without being decoded, parsed or
// hashed again. Rejected bodies never enter it and take the full path every
// time; a repeat whose result was evicted compiles again from its bytes.
// The cluster router keeps its own BodyMemo for its routing key. Both
// tiers read a body once with ReadBody, into a buffer presized from its
// Content-Length, and status and result bodies declare their length in
// turn.
// ResultPayload.UnmarshalJSON decodes samples in the form the server
// writes without reflection, and any other form through encoding/json.
// ResolveRun is the one resolver from a run request (strategy and params or
// auto, backend, noise and params) to its canonical form and sim.Options:
// compile runs it whole, CanonicalHash runs its canonicalising half (no
// strategy is built), and cmd/ddsim resolves its flags through it.
//
// Job execution, cancellation, deadlines, and seeding all delegate to
// batch.Pool; response payloads are assembled in the job's Finalize hook on
// the worker goroutine, the only point where the final state DD is valid:
// the pool drops each job's DD manager once Finalize returns, so a finished
// job held in the registry costs its payload, not its decision diagrams.
// Each job carries a bounded
// event ring (Config.EventBufferSize) fed by the simulation Observer on the
// worker — appends never block on consumers, slow or reconnecting SSE
// readers see an explicit dropped-count gap instead. The public client
// package wraps the whole API in typed calls, including the event stream.
// docs/API.md documents every endpoint with request/response examples.
package serve
