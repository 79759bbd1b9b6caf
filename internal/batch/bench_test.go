package batch

import (
	"context"
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// BenchmarkBatchRun measures the fan-out speedup of the worker pool on a
// fleet of independent approximate simulations (the Table I / sweep
// workload shape). On a multi-core machine ns/op drops as workers rise
// while cpu-s/op stays flat; on a single core the pool degrades gracefully
// to serial throughput. cpu-s/op is the process's user+system CPU time
// (getrusage) over the timed loop divided by b.N, so it counts real CPU
// work, not the summed wall time of jobs that time-share cores. It is
// reported, not gated.
func BenchmarkBatchRun(b *testing.B) {
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{
			Name:    fmt.Sprintf("rct_seed%d", i),
			Circuit: gen.RandomCliffordT(10, 220, int64(i)),
			NewStrategy: func() core.Strategy {
				return &core.MemoryDriven{Threshold: 64, RoundFidelity: 0.97, Growth: 1.1}
			},
		}
	}
	// Jobs are built once, outside the timed region: the benchmark measures
	// the engine, not circuit construction.
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			cpu0 := processCPU(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), jobs, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != len(jobs) {
					b.Fatalf("completed %d of %d", res.Completed, len(jobs))
				}
			}
			b.StopTimer()
			b.ReportMetric((processCPU(b)-cpu0).Seconds()/float64(b.N), "cpu-s/op")
		})
	}
}

// processCPU returns the user+system CPU time the process has consumed.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
