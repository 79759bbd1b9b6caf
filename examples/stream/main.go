// Stream a simulation's mid-run events from a running simd service with the
// typed client: submit an approximated random circuit, watch its gate sizes
// and approximation rounds arrive live over the SSE endpoint, then fetch the
// typed result — the session/observer architecture end to end over HTTP.
//
// Start a server (`go run ./cmd/simd`) and then:
//
//	go run ./examples/stream -addr http://localhost:8555
//
// The process exits non-zero on any failure, so CI uses it as the typed
// client round-trip of the simd smoke test.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/client"
)

func main() {
	addr := flag.String("addr", "http://localhost:8555", "simd base URL")
	qubits := flag.Int("qubits", 10, "register width of the random benchmark circuit")
	gates := flag.Int("gates", 200, "gate count of the random benchmark circuit")
	threshold := flag.Int("threshold", 16, "memory-driven node threshold (small = more rounds to watch)")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Build the circuit with the public facade and ship it as QASM.
	circ := repro.RandomCliffordTCircuit(*qubits, *gates, 3)
	qasm, err := repro.ExportQASM(circ)
	if err != nil {
		fatal(err)
	}

	cl := client.New(*addr)
	job, err := cl.Submit(ctx, client.JobRequest{
		Name:           "stream-example",
		QASM:           qasm,
		Strategy:       "memory",
		StrategyParams: json.RawMessage(fmt.Sprintf(`{"threshold":%d,"round_fidelity":0.97}`, *threshold)),
		Shots:          16,
		// A per-run seed keeps reruns against a long-lived server out of
		// the content cache — a cache hit would skip the simulation and
		// leave nothing to stream.
		Seed: time.Now().UnixNano(),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("submitted %s (cached=%v)\n", job.ID, job.Cached)

	// Consume the live event stream: every gate, round, and cleanup as the
	// worker executes them, then the terminal status.
	var gatesSeen, rounds int
	final, err := cl.Stream(ctx, job.ID, func(e client.Event) error {
		switch e.Type {
		case client.EventGate:
			gatesSeen++
			if gatesSeen%50 == 0 {
				fmt.Printf("  gate %4d: %6d nodes\n", e.GateIndex, e.Size)
			}
		case client.EventApproximation:
			rounds++
			fmt.Printf("  round after gate %4d: %6d -> %6d nodes, fidelity %.4f\n",
				e.GateIndex, e.Round.SizeBefore, e.Round.SizeAfter, e.Round.Achieved)
		case client.EventCleanup:
			fmt.Printf("  cleanup after gate %4d: freed %d nodes\n", e.GateIndex, e.Freed)
		case client.EventFinish:
			fmt.Printf("  finished: max %d nodes, %d rounds, fidelity %.4f\n",
				e.MaxSize, e.Rounds, e.Fidelity)
		case client.EventStatus:
			fmt.Printf("  terminal status: %s\n", e.Status)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if final.Status != client.StatusDone {
		fatal(fmt.Errorf("job ended %s: %s", final.Status, final.Error))
	}
	if !job.Cached && (gatesSeen == 0 || rounds == 0) {
		fatal(fmt.Errorf("stream delivered %d gate and %d round events; expected both", gatesSeen, rounds))
	}

	res, err := cl.Result(ctx, job.ID)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result: %d qubits, %d gates, strategy %s, max DD %d, fidelity %.4f (%d rounds), %.1f ms\n",
		res.NumQubits, res.GateCount, res.Strategy, res.MaxDDSize,
		res.EstimatedFidelity, len(res.Rounds), res.RuntimeMS)
	if !job.Cached && len(res.Rounds) != rounds {
		fatal(fmt.Errorf("streamed %d rounds but result reports %d", rounds, len(res.Rounds)))
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("server: %d jobs done, %d workers, cache %d/%d entries\n",
		stats.Jobs["done"], stats.Pool.Workers, stats.Cache.Entries, stats.Cache.Capacity)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stream:", err)
	os.Exit(1)
}
