package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/qasm"
	"repro/internal/serve"
)

// benchWorkingSet is the number of distinct circuits the hit benchmark
// cycles through; odd, so it does not divide evenly over two backends.
const benchWorkingSet = 5

// BenchmarkRouterRoundTrip times one job from submit to terminal status
// through the router and two single-worker serve backends under hash
// routing:
//
//   - hit: a working set of 4-qubit GHZ circuits with 32 shots is submitted
//     once before the timer starts, so every timed submission is a cache
//     hit on the backend it is pinned to, answered through both tiers'
//     body memos.
//   - hit_qasm: the same on 16-qubit, 400-gate Clifford+T QASM submissions
//     with 256 shots, the shape serve-hot submits, where decoding, parsing
//     and hashing are what the memos save.
//   - miss: every submission carries a fresh seed, so every one simulates.
//
// Each reports p99-ns, the 99th-percentile op latency, next to ns/op
// (scripts/benchsummary says which of the two it gates).
func BenchmarkRouterRoundTrip(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		tc := startCluster(b, 2, Config{})
		for slot := 0; slot < benchWorkingSet; slot++ {
			tc.roundTrip(ghzJob(int64(slot + 1)))
		}
		timeRoundTrips(b, func(i int) { tc.roundTrip(ghzJob(int64(i%benchWorkingSet + 1))) })
	})
	b.Run("hit_qasm", func(b *testing.B) {
		tc := startCluster(b, 2, Config{})
		reqs := make([]serve.JobRequest, benchWorkingSet)
		for slot := range reqs {
			src, err := qasm.Export(gen.CliffordT(16, 400, 8, int64(slot+1)))
			if err != nil {
				b.Fatal(err)
			}
			reqs[slot] = serve.JobRequest{QASM: src, Shots: 256, Seed: int64(slot + 1)}
			tc.roundTrip(reqs[slot])
		}
		timeRoundTrips(b, func(i int) { tc.roundTrip(reqs[i%benchWorkingSet]) })
	})
	b.Run("miss", func(b *testing.B) {
		tc := startCluster(b, 2, Config{})
		timeRoundTrips(b, func(i int) { tc.roundTrip(ghzJob(int64(i + 1))) })
	})
}

// timeRoundTrips runs op b.N times under the timer and reports the p99
// latency of one op.
func timeRoundTrips(b *testing.B, op func(i int)) {
	lats := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range lats {
		t0 := time.Now()
		op(i)
		lats[i] = time.Since(t0)
	}
	b.StopTimer()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	b.ReportMetric(float64(lats[(len(lats)-1)*99/100].Nanoseconds()), "p99-ns")
}

// roundTrip submits req through the router and returns once the job is
// done. A submission the backend answers from its cache is terminal on
// arrival; any other is awaited by reading the routed events stream to
// EOF, which the backend closes after the terminal status frame.
func (tc *testCluster) roundTrip(req serve.JobRequest) {
	tc.t.Helper()
	resp, body := tc.submit(req)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		tc.t.Fatalf("submit: %v in %s", err, body)
	}
	if st.Status != serve.StatusQueued && st.Status != serve.StatusRunning {
		if st.Status != serve.StatusDone {
			tc.t.Fatalf("job %s ended %q: %s", st.ID, st.Status, st.Error)
		}
		return
	}
	code, stream := tc.get("/v1/jobs/" + st.ID + "/events")
	if code != http.StatusOK || !bytes.Contains(stream, []byte(`"status":"done"`)) {
		tc.t.Fatalf("events %s: HTTP %d, no done frame: %s", st.ID, code, stream)
	}
}

// ghzJob is a 4-qubit GHZ ladder with 32 shots; the seed enters the
// content hash, so each seed is its own cache entry.
func ghzJob(seed int64) serve.JobRequest {
	gates := []serve.GateSpec{{Name: "h", Target: 0}}
	for q := 1; q < 4; q++ {
		gates = append(gates, serve.GateSpec{Name: "x", Target: q, Controls: []int{q - 1}})
	}
	return serve.JobRequest{Qubits: 4, Gates: gates, Shots: 32, Seed: seed}
}
