package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/atlas"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/qasm"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serveClients is the closed loop's client count: each client sends its next
// submission only once it holds the previous result.
const serveClients = 2

// listener serves one handler on a loopback port.
type listener struct {
	url string
	hs  *http.Server
	wg  sync.WaitGroup
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close drops the listener and every open connection and waits for Serve
// to return.
func (l *listener) close() {
	l.hs.Close()
	l.wg.Wait()
}

// newClient returns a typed client with its own connection pool. It never
// retries: a refused submission counts as failed.
func newClient(url string) *client.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4 * serveClients}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetries(0, 0))
}

// loop is a closed loop of serveClients clients: each sends its next
// submission only once it holds the previous result.
type loop struct {
	mu sync.Mutex // guards every field below and the window
	w  *window
	d  time.Duration
	// The loop hands out submission indices until d has passed and
	// minJobs jobs completed, and then stops only at a multiple of unit,
	// so a window covers whole mix cycles. limit, when positive, bounds
	// the indices.
	minJobs, unit, limit int
	next                 int
	// seg completions make one segment of the window.
	seg, completions int
}

// run starts the clients, calls one for every claimed index, and returns
// when every client has finished its last job.
func (l *loop) run(one func(i int)) {
	l.w.begin()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := l.claim()
				if !ok {
					return
				}
				one(i)
			}
		}()
	}
	wg.Wait()
	l.w.finish()
}

func (l *loop) claim() (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el := time.Since(l.w.start.wall)
	if el > hardCap || (l.limit > 0 && l.next >= l.limit) {
		return 0, false
	}
	if el >= l.d && l.completions >= l.minJobs && l.next%l.unit == 0 {
		return 0, false
	}
	l.next++
	return l.next - 1, true
}

// record updates the window under the loop's lock; a completed job counts
// towards the current segment.
func (l *loop) record(completed bool, fn func(w *window)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn(l.w)
	if !completed {
		return
	}
	l.completions++
	if l.completions%l.seg == 0 {
		l.w.mark()
	}
}

// ---- serve-mix -------------------------------------------------------------

// mixPregen is how many serve-mix submissions set-up prepares; a window
// that uses them all ends early (and says so).
const mixPregen = 480

// mixMaxJobs bounds the service's job registry (simd -max-jobs).
const mixMaxJobs = 64

type mixBench struct {
	srv  *serve.Server
	ln   *listener
	cl   *client.Client
	jobs []mixJob
	next int // the first submission the next window sends
}

func setupMix(ctx context.Context, seed int64) (bench, error) {
	jobs, err := mixJobs(seed, 0, mixPregen)
	if err != nil {
		return nil, err
	}
	// The registry bound keeps memory flat: every retained finished job
	// pins its DD manager (see README), and the default bound of 4096
	// would grow the process by gigabytes over one window.
	srv := serve.New(serve.Config{Workers: 1, MaxJobs: mixMaxJobs})
	ln, err := listen(srv.Handler())
	if err != nil {
		srv.Shutdown(ctx)
		return nil, err
	}
	b := &mixBench{srv: srv, ln: ln, cl: newClient(ln.url), jobs: jobs}
	// Warm the server, its pool and both clients' connections with one
	// cycle of submissions from a stream no window uses.
	warm, err := mixJobs(^seed, 0, len(mixCycle))
	if err != nil {
		b.close()
		return nil, err
	}
	for _, j := range warm {
		if _, _, err := b.roundTrip(ctx, j.Req, nil, -1); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up %s: %w", j.Req.Name, err)
		}
	}
	return b, nil
}

// mixResult is one completed serve-mix job awaiting its replay check.
type mixResult struct {
	idx     int
	status  *client.JobStatus
	payload serve.ResultPayload
	latency time.Duration
}

// roundTrip submits req and follows its event stream to the decoded result.
// Completion is detected from the stream's terminal event, never by polling.
func (b *mixBench) roundTrip(ctx context.Context, req serve.JobRequest, tr *tracer, id int64) (*client.JobStatus, serve.ResultPayload, error) {
	var p serve.ResultPayload
	t0 := time.Now()
	st, err := b.cl.Submit(ctx, req)
	t1 := time.Now()
	if err != nil {
		return nil, p, err
	}
	var first, terminal time.Time
	st, err = b.cl.Stream(ctx, st.ID, func(e client.Event) error {
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		if e.Type == client.EventStatus {
			terminal = now
		}
		return nil
	})
	if err != nil {
		return nil, p, err
	}
	if st.Status != client.StatusDone {
		return st, p, fmt.Errorf("job %s ended %s: %s", st.ID, st.Status, st.Error)
	}
	if err := json.Unmarshal(st.Result, &p); err != nil {
		return st, p, fmt.Errorf("decoding result: %w", err)
	}
	t2 := time.Now()
	root := tr.record("request", id, -1, t0, t2)
	tr.record("serve.submit", id, root, t0, t1)
	tr.record("serve.queue", id, root, t1, first)
	tr.record("serve.result", id, root, terminal, t2)
	tr.add("serve.payload_bytes", float64(len(st.Result)))
	tr.add("serve.payloads", 1)
	return st, p, nil
}

func (b *mixBench) window(ctx context.Context, d time.Duration, minJobs int, tr *tracer) (*window, error) {
	w := newWindow(1, serveClients)
	before, err := b.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	var results []mixResult
	// A segment is one mix cycle's worth of completions. The replay check
	// below runs after the window, so completions count here and the
	// correct ones are recorded there.
	l := &loop{w: w, d: d, minJobs: minJobs, unit: len(mixCycle), limit: len(b.jobs), seg: len(mixCycle), next: b.next}
	l.run(func(i int) {
		t0 := time.Now()
		st, p, err := b.roundTrip(ctx, b.jobs[i].Req, tr, int64(i))
		lat := time.Since(t0)
		l.record(err == nil, func(w *window) {
			switch {
			case err != nil:
				w.fail("%s: %v", b.jobs[i].Req.Name, err)
			case st.Cached:
				w.fail("%s: answered from the cache; every serve-mix job must miss", b.jobs[i].Req.Name)
			default:
				w.pending++
				results = append(results, mixResult{idx: i, status: st, payload: p, latency: lat})
			}
		})
	})
	b.next = l.next
	if l.next >= len(b.jobs) {
		fmt.Printf("note: all %d prepared submissions used; the window ended early\n", len(b.jobs))
	}
	after, err := b.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		hits := float64(after.Cache.Hits - before.Cache.Hits)
		misses := float64(after.Cache.Misses - before.Cache.Misses)
		tr.add("serve.cache_hits", hits)
		tr.add("serve.cache_lookups", hits+misses)
		var busy time.Duration
		for i, ws := range after.Pool.PerWorker {
			busy += ws.Busy - before.Pool.PerWorker[i].Busy
		}
		tr.add("batch.util", float64(busy)/float64(w.wall()))
	}
	b.replayAll(w, results, tr)
	return w, nil
}

// replayAll checks every completed job against a library replay of the same
// submission, two at a time.
func (b *mixBench) replayAll(w *window, results []mixResult, tr *tracer) {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(results) {
					return
				}
				r := results[k]
				err := replay(b.jobs[r.idx], r.status, r.payload, tr, int64(r.idx))
				mu.Lock()
				if err != nil {
					w.fail("%s: %v", b.jobs[r.idx].Req.Name, err)
				} else {
					w.ok(r.latency, r.payload.MaxDDSize, r.payload.EstimatedFidelity)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// replay runs the submission through the library — QASM parser, content
// hash, atlas resolution, a stepped sim.Session and the sampler — and
// compares every reported field with the service's answer.
func replay(j mixJob, st *client.JobStatus, got serve.ResultPayload, tr *tracer, id int64) error {
	req := j.Req
	c := j.Circuit
	if req.QASM != "" {
		t0 := time.Now()
		prog, err := qasm.Parse(req.QASM, req.Name)
		tr.record("qasm.parse", id, -1, t0, time.Now())
		if err != nil {
			return err
		}
		c = prog.Circuit
	}
	t0 := time.Now()
	hash, err := serve.CanonicalHash(req)
	tr.record("serve.hash", id, -1, t0, time.Now())
	if err != nil {
		return err
	}
	if hash != st.Hash {
		return fmt.Errorf("content hash %s, service reported %s", hash, st.Hash)
	}
	name, params := req.Strategy, req.StrategyParams
	if name == serve.StrategyAuto {
		win := atlas.Resolve(gen.Classify(c))
		name, params = win.Strategy, json.RawMessage(win.Params)
		if win.Params == "" {
			params = nil
		}
	}
	strat, err := core.NewStrategyByName(name, params)
	if err != nil {
		return err
	}
	opts := sim.Options{Strategy: strat, InitialState: req.InitialState, MeasurementSeed: req.Seed}
	jt := tr.newJobTrace(id)
	if jt != nil {
		jt.begin(c.NumQubits)
		opts.Strategy, opts.Observer = jt.strategy(strat), jt
	}
	ses, err := sim.NewSession(c, opts)
	if err != nil {
		return err
	}
	for ses.Remaining() > 0 {
		if jt != nil {
			jt.mark = time.Now() // the gate span starts at the Step call
		}
		if err := ses.Step(); err != nil {
			return err
		}
	}
	res, err := ses.Finish()
	if err != nil {
		return err
	}
	jt.done(res)
	t0 = time.Now()
	hist := res.Manager.SampleMany(res.Final, res.NumQubits, req.Shots, rand.New(rand.NewSource(req.Seed)))
	tr.record("sim.sample", id, -1, t0, time.Now())
	samples := make(map[string]int, len(hist))
	for idx, n := range hist {
		samples[fmt.Sprintf("%0*b", res.NumQubits, idx)] = n
	}

	var rounds []serve.RoundPayload
	for _, r := range res.Rounds {
		rounds = append(rounds, serve.RoundPayload{
			GateIndex: r.GateIndex, SizeBefore: r.Report.SizeBefore, SizeAfter: r.Report.SizeAfter,
			Achieved: r.Report.Achieved, RemovedNodes: r.Report.RemovedNodes, ReplacedNodes: r.Report.ReplacedNodes,
		})
	}
	var diffs []string
	check := func(field string, g, want any) {
		if !reflect.DeepEqual(g, want) {
			diffs = append(diffs, fmt.Sprintf("%s %v, library %v", field, g, want))
		}
	}
	check("resolved_strategy", got.ResolvedStrategy, name)
	check("gate_count", got.GateCount, res.GateCount)
	check("max_dd_size", got.MaxDDSize, res.MaxDDSize)
	check("final_dd_size", got.FinalDDSize, res.FinalDDSize)
	check("estimated_fidelity", got.EstimatedFidelity, res.EstimatedFidelity)
	check("fidelity_bound", got.FidelityBound, res.FidelityBound)
	check("rounds", got.Rounds, rounds)
	check("sift_swaps", got.SiftSwaps, res.SiftSwaps)
	check("samples", got.Samples, samples)
	if len(diffs) > 0 {
		return errors.New(strings.Join(diffs, "; "))
	}
	return nil
}

func (b *mixBench) ledger(_ context.Context, tr *tracer, _ *window, led map[string]float64) {
	if n := tr.sum("serve.cache_lookups"); n > 0 {
		led["serve.cache_hit_ratio"] = tr.sum("serve.cache_hits") / n
	}
	led["batch.util"] = tr.sum("batch.util")
	led["batch.imbalance"] = 1 // one worker
}

func (b *mixBench) after(context.Context) []string { return nil }

func (b *mixBench) close() {
	b.ln.close()
	b.srv.Shutdown(context.Background())
}

// ---- serve-hot -------------------------------------------------------------

// hotBackends is the number of simd backends behind the router, one worker
// each.
const hotBackends = 2

type hotBench struct {
	seed     int64
	backends []*serve.Server
	lns      []*listener // backends first, the router last
	router   *cluster.Router
	cl       *client.Client   // through the router
	direct   []*client.Client // straight to each backend
	reqs     []serve.JobRequest
	payloads [][]byte // set-up payload per working-set entry
	owner    []int    // ring owner per working-set entry
}

func setupHot(ctx context.Context, seed int64) (bench, error) {
	reqs, err := hotJobs(seed)
	if err != nil {
		return nil, err
	}
	b := &hotBench{seed: seed, reqs: reqs}
	names := make([]string, hotBackends)
	var urls []string
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i)
		srv := serve.New(serve.Config{Workers: 1})
		b.backends = append(b.backends, srv)
		ln, err := listen(srv.Handler())
		if err != nil {
			b.close()
			return nil, err
		}
		b.lns = append(b.lns, ln)
		urls = append(urls, ln.url)
		b.direct = append(b.direct, newClient(ln.url))
	}
	const vnodes = 64
	b.router, err = cluster.New(cluster.Config{Backends: urls, Names: names, VNodes: vnodes})
	if err != nil {
		b.close()
		return nil, err
	}
	ln, err := listen(b.router.Handler())
	if err != nil {
		b.close()
		return nil, err
	}
	b.lns = append(b.lns, ln)
	b.cl = newClient(ln.url)
	ring, err := cluster.NewRing(names, vnodes)
	if err != nil {
		b.close()
		return nil, err
	}

	// Compute every entry once, then keep the cached payload each later
	// POST must repeat byte for byte.
	for _, req := range reqs {
		hash, err := serve.CanonicalHash(req)
		if err != nil {
			b.close()
			return nil, err
		}
		b.owner = append(b.owner, ring.Primary(cluster.Key(hash)))
		st, err := b.cl.Submit(ctx, req)
		if err == nil {
			st, err = b.cl.Stream(ctx, st.ID, func(client.Event) error { return nil })
		}
		if err == nil && st.Status != client.StatusDone {
			err = fmt.Errorf("ended %s: %s", st.Status, st.Error)
		}
		if err == nil {
			st, err = b.cl.Submit(ctx, req)
		}
		if err == nil && !st.Cached {
			err = errors.New("resubmission was not answered from the cache")
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("computing %s: %w", req.Name, err)
		}
		b.payloads = append(b.payloads, st.Result)
	}
	return b, nil
}

func (b *hotBench) window(ctx context.Context, d time.Duration, minJobs int, tr *tracer) (*window, error) {
	w := newWindow(hotBackends, serveClients)
	before, err := b.cacheStats(ctx)
	if err != nil {
		return nil, err
	}
	rerouted := b.router.Stats(ctx).Rerouted
	var affinity [2]int // [answered by the ring owner, all]
	// The request order is a seeded sequence over the working set.
	order := rand.New(rand.NewSource(b.seed)).Perm(len(b.reqs) * 64)
	l := &loop{w: w, d: d, minJobs: minJobs, unit: 1, seg: 500}
	l.run(func(n int) {
		i := order[n%len(order)] % len(b.reqs)
		t0 := time.Now()
		st, err := b.cl.Submit(ctx, b.reqs[i])
		t1 := time.Now()
		var p serve.ResultPayload
		if err == nil {
			err = json.Unmarshal(st.Result, &p)
		}
		t2 := time.Now()
		if tr != nil && err == nil {
			root := tr.record("request", int64(n), -1, t0, t2)
			tr.record("serve.submit", int64(n), root, t0, t1)
			tr.record("serve.result", int64(n), root, t1, t2)
			tr.add("serve.payload_bytes", float64(len(st.Result)))
			tr.add("serve.payloads", 1)
		}
		l.record(err == nil, func(w *window) {
			switch {
			case err != nil:
				w.fail("%s: %v", b.reqs[i].Name, err)
			case !st.Cached:
				w.fail("%s: not answered from the cache", b.reqs[i].Name)
			case !bytes.Equal(st.Result, b.payloads[i]):
				w.fail("%s: payload differs from its set-up payload", b.reqs[i].Name)
			default:
				w.ok(t2.Sub(t0), p.MaxDDSize, p.EstimatedFidelity)
				affinity[1]++
				if strings.HasPrefix(st.ID, fmt.Sprintf("b%d.", b.owner[i])) {
					affinity[0]++
				}
			}
		})
	})
	if tr != nil {
		after, err := b.cacheStats(ctx)
		if err != nil {
			return nil, err
		}
		tr.add("serve.cache_hits", float64(after[0]-before[0]))
		tr.add("serve.cache_lookups", float64(after[0]-before[0]+after[1]-before[1]))
		tr.add("cluster.retries", float64(b.router.Stats(ctx).Rerouted-rerouted))
		tr.add("cluster.affinity_ratio", float64(affinity[0])/float64(max(affinity[1], 1)))
	}
	return w, nil
}

// cacheStats sums the backends' result-cache hits and misses.
func (b *hotBench) cacheStats(ctx context.Context) ([2]int64, error) {
	var out [2]int64
	for _, c := range b.direct {
		st, err := c.Stats(ctx)
		if err != nil {
			return out, err
		}
		out[0] += st.Cache.Hits
		out[1] += st.Cache.Misses
	}
	return out, nil
}

// ledger times the layers the cached path crosses in isolation: QASM
// parsing, the content hash, and the router hop (the same submissions sent
// through the router and straight to their owning backend, alternately).
func (b *hotBench) ledger(ctx context.Context, tr *tracer, _ *window, led map[string]float64) {
	const reps = 25
	var viaRouter, viaDirect []float64
	for r := 0; r < reps; r++ {
		for i, req := range b.reqs {
			id := int64(r*len(b.reqs) + i)
			t0 := time.Now()
			if _, err := qasm.Parse(req.QASM, req.Name); err == nil {
				tr.record("qasm.parse", id, -1, t0, time.Now())
			}
			t0 = time.Now()
			if _, err := serve.CanonicalHash(req); err == nil {
				tr.record("serve.hash", id, -1, t0, time.Now())
			}
			t0 = time.Now()
			if _, err := b.cl.Submit(ctx, req); err == nil {
				t1 := time.Now()
				tr.record("cluster.routed", id, -1, t0, t1)
				viaRouter = append(viaRouter, ms(t1.Sub(t0)))
			}
			t0 = time.Now()
			if _, err := b.direct[b.owner[i]].Submit(ctx, req); err == nil {
				t1 := time.Now()
				tr.record("cluster.direct", id, -1, t0, t1)
				viaDirect = append(viaDirect, ms(t1.Sub(t0)))
			}
		}
	}
	led["qasm.parse_ms"] = median(tr.durations("qasm.parse"))
	led["serve.hash_ms"] = median(tr.durations("serve.hash"))
	led["cluster.hop_ms"] = median(viaRouter) - median(viaDirect)
	led["cluster.affinity_ratio"] = tr.sum("cluster.affinity_ratio")
	led["cluster.retries"] = tr.sum("cluster.retries")
	if n := tr.sum("serve.cache_lookups"); n > 0 {
		led["serve.cache_hit_ratio"] = tr.sum("serve.cache_hits") / n
	}
}

func (b *hotBench) after(context.Context) []string { return nil }

func (b *hotBench) close() {
	for i := len(b.lns) - 1; i >= 0; i-- {
		b.lns[i].close()
	}
	if b.router != nil {
		b.router.Close()
	}
	for _, s := range b.backends {
		s.Shutdown(context.Background())
	}
}
