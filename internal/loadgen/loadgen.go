package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// Schema identifies the Report format.
const Schema = "bench-cluster/v1"

// Options configures a sweep. Zero values select the CI-sized defaults.
type Options struct {
	// Backends is the number of simd backends behind the router (default 2).
	Backends int
	// Workers is the worker-pool size of each backend (default 1).
	Workers int
	// Qubits are the GHZ circuit widths to sweep (default {4}).
	Qubits []int
	// RPS is the offered submission rate per phase (default 40).
	RPS float64
	// Phase is the duration of one (route, qubits) phase (default 2s).
	Phase time.Duration
	// WorkingSet is the number of distinct circuits cycled during a phase
	// (default 5; keep it coprime with Backends so round-robin genuinely
	// spreads repeats instead of accidentally pinning them).
	WorkingSet int
	// Routes are the routing modes to compare (default {hash, rr}).
	Routes []string
	// VNodes is the router's ring points per backend (default 64).
	VNodes int
}

func (o Options) withDefaults() Options {
	if o.Backends <= 0 {
		o.Backends = 2
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if len(o.Qubits) == 0 {
		o.Qubits = []int{4}
	}
	if o.RPS <= 0 {
		o.RPS = 40
	}
	if o.Phase <= 0 {
		o.Phase = 2 * time.Second
	}
	if o.WorkingSet <= 0 {
		o.WorkingSet = 5
	}
	if len(o.Routes) == 0 {
		o.Routes = []string{cluster.RouteHash, cluster.RouteRR}
	}
	return o
}

// Run is one phase's measured outcome.
type Run struct {
	Route         string  `json:"route"`
	Qubits        int     `json:"qubits"`
	Strategy      string  `json:"strategy"`
	OfferedRPS    float64 `json:"offered_rps"`
	Sent          int     `json:"sent"`
	Completed     int     `json:"completed"`
	Failed        int     `json:"failed"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// CacheHitRate is the cluster-wide result-cache hit rate over this
	// phase alone (deltas of the router's aggregated counters).
	CacheHitRate float64 `json:"cache_hit_rate"`
	DurationMS   float64 `json:"duration_ms"`
}

// Aggregate condenses a Report for the perf gate: per-route cache hit rate
// (from counter deltas summed over every phase) and overall p99 latency.
type Aggregate struct {
	HashHitRate float64 `json:"hash_hit_rate"`
	RRHitRate   float64 `json:"rr_hit_rate"`
	HashP99MS   float64 `json:"hash_p99_ms"`
	RRP99MS     float64 `json:"rr_p99_ms"`
}

// Report is the BENCH_cluster.json document.
type Report struct {
	Schema        string    `json:"schema"`
	CalibrationNs float64   `json:"calibration_ns"`
	NumCPU        int       `json:"num_cpu"`
	Backends      int       `json:"backends"`
	Runs          []Run     `json:"runs"`
	Aggregate     Aggregate `json:"aggregate"`
}

// LocalCluster is a router plus K backends on loopback listeners, all
// in-process — the unit the sweeps run against.
type LocalCluster struct {
	// URL is the router's base URL.
	URL string

	router   *cluster.Router
	servers  []*serve.Server
	httpSrvs []*http.Server
}

// StartLocal boots k backends and a fronting router in the given route mode.
// Close releases everything.
func StartLocal(k, workers, vnodes int, route string) (*LocalCluster, error) {
	lc := &LocalCluster{}
	var urls []string
	for i := 0; i < k; i++ {
		s := serve.New(serve.Config{Workers: workers})
		url, err := lc.listen(s.Handler())
		if err != nil {
			lc.Close()
			return nil, err
		}
		lc.servers = append(lc.servers, s)
		urls = append(urls, url)
	}
	rt, err := cluster.New(cluster.Config{
		Backends:      urls,
		RouteMode:     route,
		VNodes:        vnodes,
		ProbeInterval: 250 * time.Millisecond,
	})
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.router = rt
	if lc.URL, err = lc.listen(rt.Handler()); err != nil {
		lc.Close()
		return nil, err
	}
	return lc, nil
}

func (lc *LocalCluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	lc.httpSrvs = append(lc.httpSrvs, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// Close tears the local cluster down: listeners first, then the router's
// prober, then the backend pools.
func (lc *LocalCluster) Close() {
	for _, hs := range lc.httpSrvs {
		hs.Close()
	}
	if lc.router != nil {
		lc.router.Close()
	}
	for _, s := range lc.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.Shutdown(ctx)
		cancel()
	}
}

// Stats fetches the router's aggregated cluster stats.
func (lc *LocalCluster) Stats(ctx context.Context) (*cluster.ClusterStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lc.URL+"/v1/cluster/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: cluster stats: HTTP %d", resp.StatusCode)
	}
	var cs cluster.ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return nil, err
	}
	return &cs, nil
}

// Sweep runs the full (route × qubits) grid of exact jobs and assembles the
// Report. Each route gets a freshly booted cluster, so cache hit rates
// compare routing policy, not cache warm-up order. progress (optional)
// receives one line per completed phase.
func Sweep(ctx context.Context, opts Options, progress func(string)) (*Report, error) {
	o := opts.withDefaults()
	if progress == nil {
		progress = func(string) {}
	}
	rep := &Report{Schema: Schema, NumCPU: runtime.NumCPU(), Backends: o.Backends}
	routeLats := map[string][]time.Duration{}
	routeHits := map[string][2]int64{} // hits, misses
	for _, route := range o.Routes {
		lc, err := StartLocal(o.Backends, o.Workers, o.VNodes, route)
		if err != nil {
			return nil, err
		}
		cl := client.New(lc.URL, client.WithRetries(3, 50*time.Millisecond))
		for _, q := range o.Qubits {
			run, lats, hits, misses, err := phase(ctx, cl, lc, route, q, o)
			if err != nil {
				lc.Close()
				return nil, err
			}
			rep.Runs = append(rep.Runs, run)
			routeLats[route] = append(routeLats[route], lats...)
			hm := routeHits[route]
			routeHits[route] = [2]int64{hm[0] + hits, hm[1] + misses}
			progress(fmt.Sprintf("loadgen: %-4s q=%d %-8s rps=%g: p50=%.1fms p95=%.1fms p99=%.1fms thr=%.1f/s hit=%.0f%%",
				route, q, run.Strategy, run.OfferedRPS, run.P50MS, run.P95MS, run.P99MS, run.ThroughputRPS, 100*run.CacheHitRate))
		}
		lc.Close()
	}
	rep.Aggregate = Aggregate{
		HashHitRate: rate(routeHits[cluster.RouteHash]),
		RRHitRate:   rate(routeHits[cluster.RouteRR]),
		HashP99MS:   ms(percentile(routeLats[cluster.RouteHash], 0.99)),
		RRP99MS:     ms(percentile(routeLats[cluster.RouteRR], 0.99)),
	}
	rep.CalibrationNs = Calibrate()
	return rep, nil
}

// phase drives one open-loop load phase: submissions fire on a fixed
// interval regardless of completions (so queueing shows up as latency, the
// way it does for real independent clients), each job is driven to a
// terminal state, and the cache-hit delta is read from the router.
func phase(ctx context.Context, cl *client.Client, lc *LocalCluster, route string, qubits int, o Options) (Run, []time.Duration, int64, int64, error) {
	before, err := lc.Stats(ctx)
	if err != nil {
		return Run{}, nil, 0, 0, err
	}
	total := int(o.RPS * o.Phase.Seconds())
	if total < 1 {
		total = 1
	}
	interval := o.Phase / time.Duration(total)

	var (
		mu        sync.Mutex
		lats      []time.Duration
		failed    int
		completed int
	)
	var wg sync.WaitGroup
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; i < total; i++ {
		req := ghzRequest(qubits, i%o.WorkingSet)
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			st, err := cl.Submit(ctx, req)
			if err == nil && (st.Status == serve.StatusQueued || st.Status == serve.StatusRunning) {
				st, err = cl.Wait(ctx, st.ID, 2*time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil || st.Status != serve.StatusDone {
				failed++
				return
			}
			completed++
			lats = append(lats, time.Since(t0))
		}()
		if i < total-1 {
			select {
			case <-ctx.Done():
				wg.Wait()
				return Run{}, nil, 0, 0, context.Cause(ctx)
			case <-tick.C:
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := lc.Stats(ctx)
	if err != nil {
		return Run{}, nil, 0, 0, err
	}

	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	run := Run{
		Route:         route,
		Qubits:        qubits,
		Strategy:      serve.StrategyExact,
		OfferedRPS:    o.RPS,
		Sent:          total,
		Completed:     completed,
		Failed:        failed,
		P50MS:         ms(percentile(lats, 0.50)),
		P95MS:         ms(percentile(lats, 0.95)),
		P99MS:         ms(percentile(lats, 0.99)),
		ThroughputRPS: float64(completed) / elapsed.Seconds(),
		CacheHitRate:  rate([2]int64{hits, misses}),
		DurationMS:    ms(elapsed),
	}
	return run, lats, hits, misses, nil
}

// ghzRequest builds the working-set circuit: a GHZ ladder on q qubits, made
// distinct per working-set slot through the seed (which enters the content
// hash, so each slot is its own cache entry).
func ghzRequest(q, slot int) client.JobRequest {
	gates := []serve.GateSpec{{Name: "h", Target: 0}}
	for i := 1; i < q; i++ {
		gates = append(gates, serve.GateSpec{Name: "x", Target: i, Controls: []int{i - 1}})
	}
	return client.JobRequest{
		Qubits: q,
		Gates:  gates,
		Shots:  32,
		Seed:   int64(slot + 1),
	}
}

// percentile returns the q-quantile of sorted (nearest-rank on a sorted
// slice); zero when empty.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(sorted, func(a, b int) bool { return sorted[a] < sorted[b] }) {
		s := append([]time.Duration(nil), sorted...)
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		sorted = s
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func rate(hm [2]int64) float64 {
	if hm[0]+hm[1] == 0 {
		return 0
	}
	return float64(hm[0]) / float64(hm[0]+hm[1])
}

// calibSink keeps the calibration loop observable so it cannot be elided.
var calibSink uint64

// Calibrate times a fixed SplitMix64 chain (single-threaded, cache-resident,
// allocation-free) and returns the fastest of several runs in nanoseconds —
// a pure CPU-speed probe. scripts/benchsummary stamps the same probe into
// BENCH_summary.json, which lets perf gates scale committed baselines by
// machine speed instead of comparing raw wall clock across machines.
func Calibrate() float64 {
	best := 0.0
	for run := 0; run < 5; run++ {
		x := uint64(0x9E3779B97F4A7C15)
		start := time.Now()
		for i := 0; i < 50_000_000; i++ {
			x ^= x >> 30
			x *= 0xBF58476D1CE4E5B9
			x ^= x >> 27
			x *= 0x94D049BB133111EB
			x ^= x >> 31
		}
		elapsed := float64(time.Since(start).Nanoseconds())
		calibSink += x
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best
}
