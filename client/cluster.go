package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// Cluster is a cluster-aware client that talks directly to N simd backends,
// routing each submission by its canonical circuit content hash over the same
// consistent-hash ring the simd-router uses — identical circuits always land
// on the backend whose result cache already holds them. When a backend stops
// answering, the Cluster marks it down for a cooldown and transparently fails
// over to the next backend on the ring; because submissions are
// content-addressed, failover simply resubmits the same request, so a lost
// job can only be recomputed, never duplicated.
//
//	cc, _ := client.NewCluster([]string{"http://n0:8555", "http://n1:8555"})
//	job, err := cc.Submit(ctx, client.JobRequest{QASM: src})
//	final, err := job.Wait(ctx, 0)
//
// A Cluster is safe for concurrent use.
type Cluster struct {
	names    []string
	clients  []*Client
	ring     *cluster.Ring
	cooldown time.Duration
	now      func() time.Time

	mu        sync.Mutex
	downUntil []time.Time
}

// ClusterOption configures NewCluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	names      []string
	vnodes     int
	cooldown   time.Duration
	clientOpts []Option
}

// WithBackendNames sets the backend names used for ring placement and job-id
// prefixes (default b0, b1, ...). Use the same names as the simd-router so
// both route identically. Names must be unique and must not contain ".".
func WithBackendNames(names []string) ClusterOption {
	return func(c *clusterConfig) { c.names = names }
}

// WithVNodes sets the ring points per backend (default 64).
func WithVNodes(n int) ClusterOption {
	return func(c *clusterConfig) { c.vnodes = n }
}

// WithCooldown sets how long a backend stays marked down after a transport
// failure before the Cluster tries it again (default 5s).
func WithCooldown(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.cooldown = d }
}

// WithClientOptions applies per-backend Client options (retries, HTTP
// client) to every backend client the Cluster creates.
func WithClientOptions(opts ...Option) ClusterOption {
	return func(c *clusterConfig) { c.clientOpts = append(c.clientOpts, opts...) }
}

// NewCluster builds a cluster-aware client over the given backend base URLs.
func NewCluster(backends []string, opts ...ClusterOption) (*Cluster, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("client: cluster needs at least one backend")
	}
	cfg := clusterConfig{cooldown: 5 * time.Second}
	for _, opt := range opts {
		opt(&cfg)
	}
	names := cfg.names
	if len(names) == 0 {
		names = make([]string, len(backends))
		for i := range names {
			names[i] = fmt.Sprintf("b%d", i)
		}
	}
	if len(names) != len(backends) {
		return nil, fmt.Errorf("client: %d names for %d backends", len(names), len(backends))
	}
	for _, n := range names {
		if n == "" || strings.Contains(n, idSep) {
			return nil, fmt.Errorf("client: invalid backend name %q", n)
		}
	}
	ring, err := cluster.NewRing(names, cfg.vnodes)
	if err != nil {
		return nil, err
	}
	cc := &Cluster{
		names:     names,
		ring:      ring,
		cooldown:  cfg.cooldown,
		now:       time.Now,
		downUntil: make([]time.Time, len(backends)),
	}
	for _, b := range backends {
		cc.clients = append(cc.clients, New(b, cfg.clientOpts...))
	}
	return cc, nil
}

// idSep separates the backend-name prefix from the backend-local job id,
// matching the simd-router's scheme ("b0.job-000042").
const idSep = "."

// Backends returns the configured backend names in ring order for an
// arbitrary fixed key — primarily for diagnostics.
func (cc *Cluster) Backends() []string {
	out := make([]string, len(cc.names))
	copy(out, cc.names)
	return out
}

// Submit routes the request to its ring owner (failing over across the ring
// when backends are down) and returns a handle bound to the request, so
// every later operation can re-route if the owning backend dies.
func (cc *Cluster) Submit(ctx context.Context, req JobRequest) (*ClusterJob, error) {
	job := &ClusterJob{cc: cc, req: req}
	if _, err := job.place(ctx); err != nil {
		return nil, err
	}
	return job, nil
}

// order returns backend indexes to try for req: ring order with backends in
// cooldown moved to the back (still tried last-resort, so a fully-down
// cluster degrades to an error only after every backend refused).
func (cc *Cluster) order(req JobRequest) ([]int, error) {
	hash, err := serve.CanonicalHash(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	ringOrder := cc.ring.Order(cluster.Key(hash))
	now := cc.now()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	var up, down []int
	for _, i := range ringOrder {
		if cc.downUntil[i].After(now) {
			down = append(down, i)
		} else {
			up = append(up, i)
		}
	}
	return append(up, down...), nil
}

func (cc *Cluster) markDown(i int) {
	cc.mu.Lock()
	cc.downUntil[i] = cc.now().Add(cc.cooldown)
	cc.mu.Unlock()
}

func (cc *Cluster) markUp(i int) {
	cc.mu.Lock()
	cc.downUntil[i] = time.Time{}
	cc.mu.Unlock()
}

// ClusterJob is a job handle that survives backend failure: it remembers the
// original request, and any operation hitting a dead backend resubmits the
// request to the next ring candidate and carries on there.
type ClusterJob struct {
	cc  *Cluster
	req JobRequest

	mu      sync.Mutex
	backend int    // index into cc.clients
	localID string // backend-local job id
}

// ID returns the cluster-scoped job id, prefixed with the owning backend's
// name ("b1.job-000007"). The suffix changes if the job fails over.
func (j *ClusterJob) ID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cc.names[j.backend] + idSep + j.localID
}

// Backend returns the name of the backend currently owning the job.
func (j *ClusterJob) Backend() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cc.names[j.backend]
}

func (j *ClusterJob) current() (*Client, string, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cc.clients[j.backend], j.localID, j.backend
}

// place (re)submits the request along the ring order, binding the handle to
// the first backend that accepts. Transport failures mark the backend down
// and move on; API-level rejections (bad request, queue-full after the inner
// client's own Retry-After-honoring backoff) are the answer and propagate.
func (j *ClusterJob) place(ctx context.Context) (*JobStatus, error) {
	order, err := j.cc.order(j.req)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for _, idx := range order {
		st, err := j.cc.clients[idx].Submit(ctx, j.req)
		if err == nil {
			j.cc.markUp(idx)
			j.mu.Lock()
			j.backend, j.localID = idx, st.ID
			j.mu.Unlock()
			return j.decorate(st), nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, err
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			// The backend answered: that answer is authoritative for this
			// content hash — reshuffling it elsewhere would defeat affinity.
			return nil, err
		}
		j.cc.markDown(idx)
	}
	return nil, fmt.Errorf("client: no backend accepted the submission: %w", lastErr)
}

// failoverable reports whether err means "this backend is gone" (transport
// failure after the inner client's retries) rather than an API answer.
func (j *ClusterJob) failoverable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var apiErr *APIError
	return !errors.As(err, &apiErr)
}

// failover marks the current backend down and re-places the job elsewhere.
func (j *ClusterJob) failover(ctx context.Context) error {
	_, _, idx := j.current()
	j.cc.markDown(idx)
	_, err := j.place(ctx)
	return err
}

// decorate rewrites a backend-local status to carry the cluster-scoped id.
func (j *ClusterJob) decorate(st *JobStatus) *JobStatus {
	if st == nil {
		return nil
	}
	out := *st
	out.ID = j.Backend() + idSep + out.ID
	return &out
}

// Status fetches the job's current envelope, failing over (with
// resubmission) if the owning backend died.
func (j *ClusterJob) Status(ctx context.Context) (*JobStatus, error) {
	for hop := 0; ; hop++ {
		cl, id, _ := j.current()
		st, err := cl.Status(ctx, id)
		if err == nil {
			return j.decorate(st), nil
		}
		if !j.failoverable(ctx, err) || hop >= len(j.cc.clients) {
			return nil, err
		}
		if ferr := j.failover(ctx); ferr != nil {
			return nil, err
		}
	}
}

// Wait polls until the job reaches a terminal state, following failovers.
// poll <= 0 selects 50 ms.
func (j *ClusterJob) Wait(ctx context.Context, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := j.Status(ctx)
		if err != nil {
			return nil, err
		}
		switch st.Status {
		case StatusQueued, StatusRunning:
		default:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-t.C:
		}
	}
}

// Result waits for the job to finish and fetches its payload, failing over
// (with resubmission and recomputation) if the owning backend died.
func (j *ClusterJob) Result(ctx context.Context) (*ResultPayload, error) {
	for hop := 0; ; hop++ {
		st, err := j.Wait(ctx, 0)
		if err != nil {
			return nil, err
		}
		if st.Status != StatusDone {
			return nil, fmt.Errorf("client: job %s ended %s: %s", st.ID, st.Status, st.Error)
		}
		cl, id, _ := j.current()
		res, err := cl.Result(ctx, id)
		if err == nil {
			return res, nil
		}
		if !j.failoverable(ctx, err) || hop >= len(j.cc.clients) {
			return nil, err
		}
		if ferr := j.failover(ctx); ferr != nil {
			return nil, err
		}
	}
}

// Cancel requests cancellation on the owning backend. No failover: if the
// backend is gone, so is the running job.
func (j *ClusterJob) Cancel(ctx context.Context) (*JobStatus, error) {
	cl, id, _ := j.current()
	st, err := cl.Cancel(ctx, id)
	if err != nil {
		return nil, err
	}
	return j.decorate(st), nil
}

// Stream consumes the job's Server-Sent Events like Client.Stream, but
// resumes against the next ring backend when the owning backend dies
// mid-stream: the request is resubmitted there and the stream continues.
// Because the replacement job re-executes from the start, already-delivered
// data events are suppressed by sequence number; the terminal status event is
// always delivered. fn errors abort the stream and are returned verbatim.
//
// The returned envelope comes from the backend that sent the terminal event,
// never through failover: if that backend dies before answering, Stream
// returns the terminal event's own status rather than a resubmitted job.
func (j *ClusterJob) Stream(ctx context.Context, fn func(Event) error) (*JobStatus, error) {
	seen := int64(-1) // highest data-event seq delivered to fn
	var final Event   // the terminal status event
	wfn := func(e Event) error {
		if e.Type == EventStatus {
			final = e
		}
		if e.Type != EventStatus && e.Seq <= seen {
			return nil // duplicate from a post-failover re-execution
		}
		if e.Seq > seen {
			seen = e.Seq
		}
		return fn(e)
	}
	cursor := int64(-1) // same-connection resume cursor (?from=), per backend
	attempt, strikes := 0, 0
	for {
		cl, id, _ := j.current()
		terminal, err := cl.streamOnce(ctx, id, &cursor, wfn)
		if terminal {
			st, err := cl.Status(ctx, id)
			if err != nil {
				st = &JobStatus{ID: id, Status: final.Status, Error: final.Error}
			}
			return j.decorate(st), nil
		}
		if err == nil {
			err = fmt.Errorf("client: stream for %s ended without a terminal event", j.ID())
		}
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		var abort *callerAbort
		if errors.As(err, &abort) {
			return nil, abort.err
		}
		if attempt >= 2*len(j.cc.clients)+cl.retries {
			return nil, err
		}
		attempt++
		if j.failoverable(ctx, err) {
			// One transient drop resumes in place (?from= cursor); a second
			// consecutive transport failure writes the backend off.
			strikes++
			if strikes >= 2 {
				strikes = 0
				if ferr := j.failover(ctx); ferr != nil {
					return nil, err
				}
				cursor = -1 // fresh job on the new backend: new sequence space
				continue
			}
		} else if !cl.retryable(err) {
			return nil, err
		} else {
			strikes = 0
		}
		if serr := cl.sleep(ctx, attempt-1, err); serr != nil {
			return nil, serr
		}
	}
}
