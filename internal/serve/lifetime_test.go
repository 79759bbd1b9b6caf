package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
)

// managerProbe is an exact strategy that records a weak pointer to the DD
// manager of the run it drives, keyed by its "probe" param (distinct probes
// also keep otherwise identical submissions out of the result cache).
type managerProbe struct {
	core.Exact
	Probe string `json:"probe"`
}

var probedManagers sync.Map // probe name → weak.Pointer[dd.Manager]

func (p *managerProbe) AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *core.Round, error) {
	if gateIdx == 0 {
		probedManagers.Store(p.Probe, weak.Make(m))
	}
	return state, nil, nil
}

func init() {
	if err := core.RegisterStrategy("manager-probe", func(params json.RawMessage) (core.Strategy, error) {
		p := &managerProbe{}
		return p, json.Unmarshal(params, p)
	}); err != nil {
		panic(err)
	}
}

// TestFinishedJobPinsNoManager: a finished job still held in the registry
// (and its cached payload) must not keep the job's DD manager alive.
func TestFinishedJobPinsNoManager(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	req := inlineRequest("pinned", gen.GHZ(6))
	req.Shots = 16
	req.Strategy = "manager-probe"
	req.StrategyParams = json.RawMessage(`{"probe": "pinned"}`)
	st := c.submit(req, http.StatusAccepted)
	if final := c.await(st.ID); final.Status != StatusDone {
		t.Fatalf("job ended %q: %s", final.Status, final.Error)
	}
	s.mu.Lock()
	js := s.jobs[st.ID]
	s.mu.Unlock()
	if js == nil {
		t.Fatal("finished job missing from the registry")
	}
	// The status flips to done inside Finalize; the pool releases the
	// result's manager when Finalize returns. Closing the pool waits until
	// the worker is past the job; the registry still holds its handle.
	s.pool.Close()
	v, ok := probedManagers.Load("pinned")
	if !ok {
		t.Fatal("probe strategy never saw the manager")
	}
	runtime.GC()
	if v.(weak.Pointer[dd.Manager]).Value() != nil {
		t.Error("a finished job in the registry still pins its DD manager")
	}
	runtime.KeepAlive(js)
}
