package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie above a percentile before
// it is reported: fewer and the tail is set by a handful of outliers.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie strictly beyond its rank. Callers
// must not report a percentile for which ok is false.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	s := sorted(xs)
	return s[rank-1], n-rank >= minBeyond
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile of xs: a
// weighted mean of all order statistics with Beta(q(n+1), (1-q)(n+1))
// weights, which concentrate around rank qn. Latencies of a job mix cluster
// by job class; where a quantile falls in a gap between clusters, a single
// order statistic jumps across the gap from run to run, and this estimate
// moves smoothly instead. ok follows the same minBeyond rule as percentile.
func hdQuantile(xs []float64, q float64) (v float64, ok bool) {
	_, ok = percentile(xs, q)
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	prev := 0.0
	for i, x := range s {
		cur := regBeta(float64(i+1)/float64(n), a, b)
		v += (cur - prev) * x
		prev = cur
	}
	return v, ok
}

// regBeta is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (betacf), using the symmetry
// I_x(a, b) = 1 - I_{1-x}(b, a) where the fraction converges slowly.
func regBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c, d := 1.0, 1-qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 10000; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-12 {
			break
		}
	}
	return h
}

// samplesFor returns the smallest sample count at which percentile q has
// minBeyond samples beyond it.
func samplesFor(q float64) int {
	for n := minBeyond + 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return n
		}
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU of the whole process
	maxRSS  int64         // peak resident set, bytes
	gcCPU   float64       // runtime/metrics GC CPU seconds
	allCPU  float64       // runtime/metrics total CPU seconds
	alloced uint64        // cumulative heap allocation, bytes
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readUsage() usage {
	var ru syscall.Rusage
	u := usage{wall: time.Now()}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSS = int64(ru.Maxrss) * 1024 // Linux reports kilobytes
	}
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	u.gcCPU = float64Value(s[0])
	u.allCPU = float64Value(s[1])
	if s[2].Value.Kind() == metrics.KindUint64 {
		u.alloced = s[2].Value.Uint64()
	}
	return u
}

func float64Value(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}
