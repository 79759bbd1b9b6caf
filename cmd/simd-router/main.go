// Command simd-router is the cluster coordinator for simd: it
// consistent-hashes job submissions by their canonical circuit content hash
// across N simd backends (so each backend's result cache stays
// partition-hot), probes backend health with mark-down/mark-up hysteresis,
// reroutes around dead backends, propagates per-backend queue-full
// backpressure as retriable 503s with Retry-After, sheds load when no
// backend is reachable, and aggregates cluster-wide observability on
// GET /v1/cluster/stats.
//
// Usage:
//
//	simd-router -backends http://10.0.0.1:8555,http://10.0.0.2:8555
//	simd-router -probe-interval 500ms -markdown 2 -markup 2
//	simd-router -vnodes 128                             # ring points per backend
//
// Job ids returned through the router carry the owning backend's name
// ("b0.job-000042"); all job-scoped requests (status, result, events,
// cancel) route by that prefix. The process drains gracefully on
// SIGINT/SIGTERM. See docs/API.md for the endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8600", "listen address")
	backends := flag.String("backends", "", "comma-separated simd base URLs (required)")
	names := flag.String("names", "", "comma-separated backend names (default b0,b1,...)")
	vnodes := flag.Int("vnodes", 64, "consistent-hash ring points per backend")
	probeInterval := flag.Duration("probe-interval", time.Second, "/healthz probe cadence")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe (and stats fetch) timeout")
	markDown := flag.Int("markdown", 2, "consecutive failures before a backend is marked down")
	markUp := flag.Int("markup", 2, "consecutive healthy probes before a marked-down backend returns")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight requests (0 = wait forever)")
	flag.Parse()

	if *backends == "" {
		fmt.Fprintln(os.Stderr, "simd-router: -backends is required")
		os.Exit(2)
	}
	cfg := cluster.Config{
		Backends:      splitList(*backends),
		Names:         splitList(*names),
		VNodes:        *vnodes,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		MarkDownAfter: *markDown,
		MarkUpAfter:   *markUp,
	}
	rt, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd-router:", err)
		os.Exit(1)
	}
	defer rt.Close()
	log.Printf("simd-router: listening on %s (backends=%d probe=%v hysteresis=%d/%d)",
		*addr, len(cfg.Backends), *probeInterval, *markDown, *markUp)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "simd-router:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	shutdownCtx := context.Background()
	if *grace > 0 {
		var cancel context.CancelFunc
		shutdownCtx, cancel = context.WithTimeout(shutdownCtx, *grace)
		defer cancel()
	}
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "simd-router: shutdown:", err)
		os.Exit(1)
	}
	log.Printf("simd-router: shut down cleanly")
}

// splitList splits a comma-separated flag, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
