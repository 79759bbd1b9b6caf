package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// member is one backend's membership state: its routing identity plus the
// hysteresis bookkeeping that decides whether the router offers it traffic.
type member struct {
	name     string
	url      string // base URL, no trailing slash
	idPrefix []byte // routedIDPrefix(name)

	// up is the routing decision bit, read on every request without locks.
	up atomic.Bool
	// routed counts submissions this backend accepted through the router.
	routed atomic.Int64

	mu         sync.Mutex
	consecFail int
	consecOK   int
	lastErr    string
	lastProbe  time.Time
	markDowns  int64
}

// observe folds one health observation (an active /healthz probe or a
// passive proxied-request outcome) into the hysteresis state: a backend is
// marked down after markDownAfter consecutive failures and back up after
// markUpAfter consecutive successes, so a single dropped packet neither
// ejects a healthy backend nor readmits a flapping one.
func (m *member) observe(ok bool, errMsg string, markDownAfter, markUpAfter int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastProbe = time.Now()
	if ok {
		m.consecOK++
		m.consecFail = 0
		m.lastErr = ""
		if !m.up.Load() && m.consecOK >= markUpAfter {
			m.up.Store(true)
		}
		return
	}
	m.consecFail++
	m.consecOK = 0
	m.lastErr = errMsg
	if m.up.Load() && m.consecFail >= markDownAfter {
		m.up.Store(false)
		m.markDowns++
	}
}

// health snapshots the hysteresis state for /v1/cluster/stats.
func (m *member) health() (consecFail int, lastErr string, lastProbe time.Time, markDowns int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.consecFail, m.lastErr, m.lastProbe, m.markDowns
}

// probeLoop probes every member's /healthz at cfg.ProbeInterval until ctx is
// canceled. The first round runs immediately so a backend that is already
// dead at router start is marked down within MarkDownAfter intervals, not
// only after traffic hits it.
func (rt *Router) probeLoop(ctx context.Context) {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		rt.probeAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// probeAll probes every member concurrently and folds the results into the
// membership state.
func (rt *Router) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range rt.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			rt.observe(m, rt.probeOne(ctx, m))
		}(m)
	}
	wg.Wait()
}

// probeOne performs one /healthz probe, returning nil when the backend is
// healthy.
func (rt *Router) probeOne(ctx context.Context, m *member) error {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	resp, err := rt.forward(ctx, m, http.MethodGet, "/healthz", "", nil, nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errors.New("healthz returned HTTP " + http.StatusText(resp.StatusCode))
	}
	return nil
}

// observe folds one observation of m into its health: a nil err (a healthy
// probe or a delivered request) is a success, anything else a failure.
func (rt *Router) observe(m *member, err error) {
	if err != nil {
		m.observe(false, err.Error(), rt.cfg.MarkDownAfter, rt.cfg.MarkUpAfter)
		return
	}
	m.observe(true, "", rt.cfg.MarkDownAfter, rt.cfg.MarkUpAfter)
}
