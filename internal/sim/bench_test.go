package sim

import (
	"encoding/json"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
)

// BenchmarkSessionOverhead proves the Session refactor is free: Run (now a
// thin loop over a stack-held Session) against explicit stepping, on the same
// workload, with allocation counts reported. CI archives both lines in
// BENCH_dd.json so the time and allocs/op trajectories are tracked PR over
// PR; Run must stay within noise of the explicit session loop and of the
// pre-Session numbers. Each iteration sweeps one simulator's manager empty
// instead of building a fresh one, so the figures time the run, not
// allocating a manager.
func BenchmarkSessionOverhead(b *testing.B) {
	circ := gen.QFT(12)
	newStrategy := func() core.Strategy {
		return &core.MemoryDriven{Threshold: 1 << 10, RoundFidelity: 0.99, Growth: 1.05}
	}
	b.Run("run", func(b *testing.B) {
		b.ReportAllocs()
		s := &simulator{M: dd.New()}
		for i := 0; i < b.N; i++ {
			s.M.Cleanup(nil, nil)
			if _, err := s.run(circ, Options{Strategy: newStrategy()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session_steps", func(b *testing.B) {
		b.ReportAllocs()
		s := &simulator{M: dd.New()}
		for i := 0; i < b.N; i++ {
			s.M.Cleanup(nil, nil)
			ses := &Session{}
			if err := ses.init(s, circ, Options{Strategy: newStrategy()}); err != nil {
				b.Fatal(err)
			}
			for {
				if err := ses.Step(); err == ErrSessionDone {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
			if _, err := ses.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("run_observed", func(b *testing.B) {
		// The no-op observer's cost on the hot path.
		b.ReportAllocs()
		s := &simulator{M: dd.New()}
		for i := 0; i < b.N; i++ {
			s.M.Cleanup(nil, nil)
			if _, err := s.run(circ, Options{Strategy: newStrategy(), Observer: core.NopObserver{}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSessionOrdering runs the entangled-pairs workload (qubit i
// entangled with qubit i+n/2 — exponential in n/2 under the identity order,
// linear with partners adjacent) under each static ordering, reporting the
// peak state-DD node count as the peak_nodes metric. CI's bench-check gate
// asserts scored stays below identity, pinning the reordering win PR over
// PR alongside the ns/op trajectories.
func BenchmarkSessionOrdering(b *testing.B) {
	const n = 16
	circ := circuit.New(n, "pairs")
	for i := 0; i < n/2; i++ {
		circ.H(i)
		circ.CX(i, i+n/2)
	}
	for _, mode := range []string{"identity", "scored"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			params := json.RawMessage(`{"order":"` + mode + `"}`)
			peak := 0
			s := &simulator{M: dd.New()}
			for i := 0; i < b.N; i++ {
				s.M.Cleanup(nil, nil)
				st, err := core.NewStrategyByName("reorder", params)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.run(circ, Options{Strategy: st})
				if err != nil {
					b.Fatal(err)
				}
				peak = res.MaxDDSize
			}
			b.ReportMetric(float64(peak), "peak_nodes")
		})
	}
}
