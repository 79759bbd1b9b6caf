package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", []byte("pa"))
	c.put("b", []byte("pb"))
	if v, ok := c.get("a"); !ok || !bytes.Equal(v, []byte("pa")) {
		t.Fatalf("get a: %q %v", v, ok)
	}
	// "a" is now most recently used, so inserting "c" evicts "b".
	c.put("c", []byte("pc"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived")
	}
	st := c.stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("hit/miss counters: %+v", st)
	}
	// Re-putting refreshes the payload in place.
	c.put("a", []byte("pa2"))
	if v, _ := c.get("a"); !bytes.Equal(v, []byte("pa2")) {
		t.Errorf("refresh lost: %q", v)
	}
	if got := c.stats().Entries; got != 2 {
		t.Errorf("re-put grew the cache: %d entries", got)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.put("a", []byte("pa"))
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache must never hit")
	}
}

func TestContentHashProperties(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(nil)
	base := JobRequest{QASM: ghzQASM, Shots: 16}
	h := func(r JobRequest) string {
		c, err := s.compile(r)
		if err != nil {
			t.Fatal(err)
		}
		return c.hash
	}
	if a, b := h(base), h(base); a != b {
		t.Error("hash must be deterministic")
	}
	named := base
	named.Name = "different label"
	if h(base) != h(named) {
		t.Error("job name must not affect the content hash")
	}
	timed := base
	timed.TimeoutMS = 1234
	if h(base) != h(timed) {
		t.Error("timeout must not affect the content hash")
	}
	seeded := base
	seeded.Seed = 5
	if h(base) == h(seeded) {
		t.Error("explicit seed must affect the content hash")
	}
	strat := base
	strat.Strategy = "memory"
	strat.StrategyParams = json.RawMessage(`{"threshold":64,"round_fidelity":0.9}`)
	if h(base) == h(strat) {
		t.Error("strategy must affect the content hash")
	}
	shots := base
	shots.Shots = 17
	if h(base) == h(shots) {
		t.Error("shot count must affect the content hash")
	}

	// Normalization: semantically identical submissions hash identically.
	explicitExact := base
	explicitExact.Strategy = StrategyExact
	if h(base) != h(explicitExact) {
		t.Error("default strategy and explicit \"exact\" must hash identically")
	}
	for _, empty := range []string{`null`, `{}`} {
		exactEmpty := explicitExact
		exactEmpty.StrategyParams = json.RawMessage(empty)
		if h(explicitExact) != h(exactEmpty) {
			t.Errorf("exact with params %s must hash like exact without", empty)
		}
	}
}
