package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/serve"
)

// Values of the HeaderRoute response header.
const (
	// RouteHash: the submission went to the ring owner of its content hash.
	// Identical circuits always land on the same backend, keeping its result
	// cache partition-hot.
	RouteHash = "hash"
	// RouteFailover: the owner was down or unreachable, and the next up
	// backend in ring order served the submission.
	RouteFailover = "failover"
)

// Response headers the router adds to every routed submission.
const (
	// HeaderBackend names the backend that served the request.
	HeaderBackend = "X-Cluster-Backend"
	// HeaderRoute records how the backend was chosen: RouteHash or
	// RouteFailover.
	HeaderRoute = "X-Cluster-Route"
	// HeaderHash carries the submission's canonical content hash.
	HeaderHash = "X-Cluster-Hash"
)

// Machine-readable error codes the router adds to the serve error-envelope
// vocabulary. Both are retriable and carry Retry-After.
const (
	// CodeNoBackend: every backend that could own the submission is marked
	// down or unreachable; the request was shed.
	CodeNoBackend = "no_backend"
	// CodeBackendDown: the backend owning the requested job id is marked
	// down; the job may resume when it returns, or the caller can resubmit
	// (submissions are content-addressed, so resubmission is idempotent).
	CodeBackendDown = "backend_down"
)

// idSep joins a backend name and its local job id into a routed job id
// ("b0.job-000042"). Backend names must not contain it.
const idSep = "."

// memoEntries bounds the router's body memo (serve.BodyMemo): the bodies
// whose routing key it remembers, least recently used out first.
const memoEntries = 4096

// Config describes the cluster a Router fronts.
type Config struct {
	// Backends are the simd base URLs ("http://host:port"), one per backend.
	Backends []string
	// Names optionally names each backend (same length as Backends). Names
	// determine ring placement and job-id prefixes; they must be distinct
	// and must not contain ".". Empty selects "b0", "b1", ...
	Names []string
	// VNodes is the number of ring points per backend (<= 0 selects 64).
	VNodes int
	// ProbeInterval is the /healthz cadence (<= 0 selects 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe or stats fetch (<= 0 selects 2s).
	ProbeTimeout time.Duration
	// MarkDownAfter and MarkUpAfter are the hysteresis widths: consecutive
	// failed observations before a backend stops receiving traffic, and
	// consecutive healthy probes before it resumes (<= 0 selects 2 each).
	MarkDownAfter int
	MarkUpAfter   int
	// MaxBodyBytes bounds submission bodies (<= 0 selects 8 MiB).
	MaxBodyBytes int64
	// Client overrides the HTTP client used for proxying and probing.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MarkDownAfter <= 0 {
		c.MarkDownAfter = 2
	}
	if c.MarkUpAfter <= 0 {
		c.MarkUpAfter = 2
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Router is the coordinator tier: an http.Handler that routes the serve API
// across the configured backends. Create with New, mount via Handler, and
// stop the health prober with Close.
type Router struct {
	cfg     Config
	ring    *Ring
	members []*member
	byName  map[string]*member
	hc      *http.Client
	mux     *http.ServeMux
	memo    *serve.BodyMemo

	routed   atomic.Int64
	rerouted atomic.Int64
	shed     atomic.Int64

	probeStop context.CancelFunc
	probeWG   sync.WaitGroup
}

// New validates cfg, builds the hash ring, starts the health prober
// (backends start marked up so traffic flows before the first probe
// completes), and returns the running router.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	names := cfg.Names
	if len(names) == 0 {
		names = make([]string, len(cfg.Backends))
		for i := range names {
			names[i] = "b" + strconv.Itoa(i)
		}
	}
	if len(names) != len(cfg.Backends) {
		return nil, fmt.Errorf("cluster: %d names for %d backends", len(names), len(cfg.Backends))
	}
	for _, n := range names {
		if n == "" || strings.Contains(n, idSep) {
			return nil, fmt.Errorf("cluster: backend name %q is empty or contains %q", n, idSep)
		}
	}
	ring, err := NewRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{}
	}
	rt := &Router{
		cfg:     cfg,
		ring:    ring,
		members: make([]*member, len(cfg.Backends)),
		byName:  make(map[string]*member, len(cfg.Backends)),
		hc:      hc,
		memo:    serve.NewBodyMemo(memoEntries),
	}
	for i, url := range cfg.Backends {
		m := &member{name: names[i], url: strings.TrimRight(url, "/"), idPrefix: routedIDPrefix(names[i])}
		m.up.Store(true)
		rt.members[i] = m
		rt.byName[m.name] = m
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", rt.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", rt.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET /v1/cluster/stats", rt.handleClusterStats)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux = mux

	ctx, stop := context.WithCancel(context.Background())
	rt.probeStop = stop
	rt.probeWG.Add(1)
	go rt.probeLoop(ctx)
	return rt, nil
}

// Handler returns the HTTP handler serving the routed API.
func (rt *Router) Handler() http.Handler { return rt.mux }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the health prober. In-flight proxied requests are unaffected.
func (rt *Router) Close() {
	rt.probeStop()
	rt.probeWG.Wait()
}

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := serve.ReadBody(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes), r.ContentLength, rt.cfg.MaxBodyBytes)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading submission: %w", err))
		return
	}
	// The routing key is the same canonical content hash the backend result
	// caches are addressed by — that identity is what makes hash routing
	// keep each backend's cache partition-hot. A body resolved before takes
	// its key from the memo without being decoded or parsed again.
	key := sha256.Sum256(body)
	res, ok := rt.memo.Get(key)
	if !ok {
		req, err := serve.DecodeRequest(body)
		if err == nil {
			res.Hash, err = serve.CanonicalHash(req)
		}
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, err)
			return
		}
		rt.memo.Put(key, res)
	}
	hash := res.Hash

	// Ring order from the content hash: the owner first, then its
	// successors as failover candidates.
	order := rt.ring.Order(Key(hash))
	primary := order[0]
	for _, idx := range order {
		m := rt.members[idx]
		if !m.up.Load() {
			continue
		}
		resp, err := rt.forward(r.Context(), m, http.MethodPost, "/v1/jobs", "", bytes.NewReader(body), nil)
		if err != nil {
			// The caller's own canceled/expired request must not count
			// against the backend's health.
			if r.Context().Err() != nil {
				serve.WriteError(w, http.StatusBadRequest, r.Context().Err())
				return
			}
			rt.observe(m, err)
			continue
		}
		rt.observe(m, nil)
		rt.routed.Add(1)
		m.routed.Add(1)
		route := RouteHash
		if idx != primary {
			route = RouteFailover
			rt.rerouted.Add(1)
		}
		w.Header().Set(HeaderBackend, m.name)
		w.Header().Set(HeaderRoute, route)
		w.Header().Set(HeaderHash, hash)
		// 2xx responses carry a JobStatus whose id gains the backend prefix;
		// everything else (the backend's queue-full 503 with its Retry-After,
		// 400s, ...) propagates verbatim — backpressure is per-backend and
		// deliberately NOT failed over, or a hot partition would flood the
		// rest of the ring with jobs they will never see again.
		rt.relay(w, resp, m)
		return
	}

	// Every candidate was marked down or unreachable: shed.
	rt.shed.Add(1)
	serve.WriteRetriable(w, errors.New("no backend available for this submission"),
		rt.recoveryHorizon(), map[string]any{"code": CodeNoBackend})
}

// recoveryHorizon estimates how long until a down backend can return: the
// probe cadence times the mark-up hysteresis width, floored at one second.
func (rt *Router) recoveryHorizon() time.Duration {
	d := rt.cfg.ProbeInterval * time.Duration(rt.cfg.MarkUpAfter)
	if d < time.Second {
		d = time.Second
	}
	return d
}

// handleJob proxies a job-scoped request (status, result, events, cancel) to
// the backend encoded in the job id prefix.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	routedID := r.PathValue("id")
	name, localID, ok := strings.Cut(routedID, idSep)
	m := rt.byName[name]
	if !ok || m == nil || localID == "" {
		serve.WriteError(w, http.StatusNotFound,
			fmt.Errorf("unknown job %q (routed ids look like b0%sjob-000001)", routedID, idSep))
		return
	}
	if !m.up.Load() {
		serve.WriteRetriable(w, fmt.Errorf("backend %s (owner of %s) is marked down", name, routedID),
			rt.recoveryHorizon(), map[string]any{"code": CodeBackendDown})
		return
	}
	path := "/v1/jobs/" + localID
	suffix := pathSuffix(r.URL.Path)
	if suffix != "" {
		path += "/" + suffix
	}
	var h http.Header
	if suffix == "events" {
		h = http.Header{"Accept": {"text/event-stream"}}
		// Resume cursors pass straight through: seqs are per-job, not per-router.
		if last := r.Header.Get("Last-Event-ID"); last != "" {
			h.Set("Last-Event-ID", last)
		}
	}
	resp, err := rt.forward(r.Context(), m, r.Method, path, r.URL.RawQuery, nil, h)
	if err != nil {
		if r.Context().Err() == nil {
			rt.observe(m, err)
		}
		serve.WriteError(w, http.StatusBadGateway, fmt.Errorf("backend %s unreachable: %w", name, err))
		return
	}
	rt.observe(m, nil)
	w.Header().Set(HeaderBackend, m.name)
	if suffix == "events" && resp.StatusCode == http.StatusOK {
		pipeStream(w, resp)
		return
	}
	rt.relay(w, resp, m)
}

// pathSuffix extracts the trailing segment after the job id ("result",
// "events"), or "" when there is none.
func pathSuffix(p string) string {
	_, suffix, _ := strings.Cut(strings.TrimPrefix(p, "/v1/jobs/"), "/")
	return suffix
}

// forward makes one request to a backend, with header h when non-nil: every
// request the router sends, probes and fan-outs included, goes through it.
func (rt *Router) forward(ctx context.Context, m *member, method, path, query string, body io.Reader, h http.Header) (*http.Response, error) {
	url := m.url + path
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if h != nil {
		req.Header = h
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return rt.hc.Do(req)
}

// maxRelayBytes bounds a relayed backend response.
const maxRelayBytes = 64 << 20

// relay copies a backend response to the caller. 2xx JobStatus bodies get
// their job id rewritten to the routed form; other bodies (error envelopes,
// result payloads) pass through byte-identically, with Retry-After and
// Content-Type preserved.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, m *member) {
	defer resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	raw, err := serve.ReadBody(io.LimitReader(resp.Body, maxRelayBytes), resp.ContentLength, maxRelayBytes)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, fmt.Errorf("reading backend response: %w", err))
		return
	}
	if resp.StatusCode/100 == 2 {
		raw = rewriteJobID(raw, m.idPrefix)
	}
	ct := resp.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.WriteHeader(resp.StatusCode)
	w.Write(raw)
}

// statusLead opens every JobStatus body: serve encodes the id first.
const statusLead = `{"id":"`

// routedIDPrefix is statusLead followed by the JSON-escaped name and idSep:
// the bytes that replace statusLead to prefix a backend's job ids.
func routedIDPrefix(name string) []byte {
	esc, _ := json.Marshal(name + idSep) // a string: cannot fail
	return append([]byte(statusLead), esc[1:len(esc)-1]...)
}

// rewriteJobID splices prefix (a routedIDPrefix) over the opening of a
// JobStatus body, leaving every other byte as is. Bodies that do not open
// with a non-empty id (results, lists, error envelopes) return unmodified.
func rewriteJobID(raw, prefix []byte) []byte {
	rest, ok := bytes.CutPrefix(raw, []byte(statusLead))
	if !ok || len(rest) == 0 || rest[0] == '"' {
		return raw
	}
	out := make([]byte, 0, len(prefix)+len(rest))
	return append(append(out, prefix...), rest...)
}

// pipeStream copies a backend SSE stream (GET /v1/jobs/{id}/events) to the
// caller chunk by chunk, flushing after every read so live events are not
// buffered, until either side closes.
func pipeStream(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc.Flush()
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// fanOut GETs path from every up backend concurrently and decodes a 200
// answer into decodeInto(i), i the backend's index. answered[i] reports
// whether backend i was up, answered 200 and decoded cleanly.
func (rt *Router) fanOut(ctx context.Context, path string, decodeInto func(i int) any) (answered []bool) {
	answered = make([]bool, len(rt.members))
	var wg sync.WaitGroup
	for i, m := range rt.members {
		if !m.up.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := rt.forward(ctx, m, http.MethodGet, path, "", nil, nil)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			answered[i] = resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(decodeInto(i)) == nil
		}()
	}
	wg.Wait()
	return answered
}

// handleList fans GET /v1/jobs out to every up backend and merges the
// listings under routed ids, in backend order. Backends that are down,
// unreachable or answer other than 200 are named in "unreachable", so a
// partial listing is visible as such.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	listings := make([]struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}, len(rt.members))
	answered := rt.fanOut(r.Context(), "/v1/jobs", func(i int) any { return &listings[i] })
	var (
		jobs        []serve.JobStatus
		unreachable []string
	)
	for i, m := range rt.members {
		if !answered[i] {
			unreachable = append(unreachable, m.name)
			continue
		}
		for _, j := range listings[i].Jobs {
			j.ID = m.name + idSep + j.ID
			jobs = append(jobs, j)
		}
	}
	body := map[string]any{"jobs": jobs}
	if len(unreachable) > 0 {
		body["unreachable"] = unreachable
	}
	serve.WriteJSON(w, http.StatusOK, body)
}

// handleHealthz reports the router's own health: 200 while at least one
// backend is up (it can route), 503 when the whole cluster is down.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, m := range rt.members {
		if m.up.Load() {
			up++
		}
	}
	status, code := "ok", http.StatusOK
	if up == 0 {
		status, code = "no_backends", http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, map[string]any{
		"status": status, "backends_up": up, "backends": len(rt.members),
	})
}

// BackendStats is one backend's entry in ClusterStats: router-side
// membership state plus the live counters fetched from the backend's own
// /v1/stats (zero-valued with Reachable=false when that fetch fails).
type BackendStats struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	Up   bool   `json:"up"`
	// ConsecutiveFailures, LastError, and LastProbe describe the hysteresis
	// state; MarkDowns counts lifetime up→down transitions.
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	LastProbe           string `json:"last_probe,omitempty"`
	MarkDowns           int64  `json:"mark_downs"`
	// Routed counts submissions this backend accepted through the router.
	Routed int64 `json:"routed"`

	// Reachable marks the live /v1/stats fetch below as fresh.
	Reachable bool `json:"reachable"`
	// Workers/QueueDepth echo the backend's pool configuration; Queued and
	// Running are its current backlog and occupancy.
	Workers    int `json:"workers,omitempty"`
	QueueDepth int `json:"queue_depth,omitempty"`
	Queued     int `json:"queued"`
	Running    int `json:"running"`
	// Utilization is the mean per-worker busy fraction since backend start.
	Utilization float64 `json:"utilization"`
	// Cache hit accounting for the backend's content-addressed result cache.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// ClusterStats is the GET /v1/cluster/stats body.
type ClusterStats struct {
	Backends []BackendStats `json:"backends"`
	// Up and Down count backends by membership state.
	Up   int `json:"up"`
	Down int `json:"down"`
	// Routed counts accepted submissions, Rerouted the subset served by a
	// failover backend, Shed the submissions rejected because no backend was
	// reachable.
	Routed   int64 `json:"routed"`
	Rerouted int64 `json:"rerouted"`
	Shed     int64 `json:"shed"`
	// Aggregate cache accounting across reachable backends.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Stats assembles the aggregated cluster snapshot (the /v1/cluster/stats
// body): membership and router counters locally, per-backend queue/cache/
// utilization numbers via concurrent /v1/stats fetches bounded by the probe
// timeout.
func (rt *Router) Stats(ctx context.Context) ClusterStats {
	st := ClusterStats{
		Backends: make([]BackendStats, len(rt.members)),
		Routed:   rt.routed.Load(),
		Rerouted: rt.rerouted.Load(),
		Shed:     rt.shed.Load(),
	}
	fctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	live := make([]serve.Stats, len(rt.members))
	answered := rt.fanOut(fctx, "/v1/stats", func(i int) any { return &live[i] })
	for i, m := range rt.members {
		bs := &st.Backends[i]
		bs.Name, bs.URL, bs.Up = m.name, m.url, m.up.Load()
		bs.Routed = m.routed.Load()
		consecFail, lastErr, lastProbe, markDowns := m.health()
		bs.ConsecutiveFailures, bs.LastError, bs.MarkDowns = consecFail, lastErr, markDowns
		if !lastProbe.IsZero() {
			bs.LastProbe = lastProbe.UTC().Format(time.RFC3339Nano)
		}
		if bs.Up {
			st.Up++
		} else {
			st.Down++
		}
		if !answered[i] {
			continue
		}
		bst := live[i]
		bs.Reachable = true
		bs.Workers = bst.Pool.Workers
		bs.QueueDepth = bst.Pool.QueueDepth
		bs.Queued = bst.Pool.Queued
		bs.Running = bst.Pool.Running
		bs.Utilization = meanUtilization(bst.Pool)
		bs.CacheHits = bst.Cache.Hits
		bs.CacheMisses = bst.Cache.Misses
		bs.CacheHitRate = hitRate(bst.Cache.Hits, bst.Cache.Misses)
		st.CacheHits += bs.CacheHits
		st.CacheMisses += bs.CacheMisses
	}
	st.CacheHitRate = hitRate(st.CacheHits, st.CacheMisses)
	return st
}

func (rt *Router) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, rt.Stats(r.Context()))
}

func meanUtilization(p batch.PoolState) float64 {
	if len(p.PerWorker) == 0 {
		return 0
	}
	sum := 0.0
	for _, w := range p.PerWorker {
		sum += w.Utilization
	}
	return sum / float64(len(p.PerWorker))
}

func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
