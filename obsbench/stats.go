package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the middle two for an
// even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := rank(q, len(sorted)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps products such as 0.9·100 = 90.00000000000001 from
// rounding up a rank.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailQuantile picks the highest ladder percentile that leaves at least
// ten samples beyond it, so a tail is never read off a handful of
// outliers.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-rank(q, n) >= 10 {
			return q
		}
	}
	return 0.5
}

// p50AndTail sorts xs in place and returns its median, its tail (see
// tailQuantile) and the tail's percentile.
func p50AndTail(xs []float64) (p50, tail, q float64) {
	sort.Float64s(xs)
	q = tailQuantile(len(xs))
	return percentile(xs, 0.5), percentile(xs, q), q
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes
// while it runs, read from runtime/metrics every couple of milliseconds.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapObjectsMetric}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// meter brackets one measured phase: wall time, process CPU time and
// heap allocations between start and stop.
type meter struct {
	wall0   time.Time
	cpu0    time.Duration
	allocs0 uint64
	heap    *heapSampler
}

type measured struct {
	wall, cpu time.Duration
	allocs    uint64
	peakHeap  uint64
}

func startMeter() *meter {
	m := &meter{allocs0: mallocs(), heap: startHeapSampler()}
	m.cpu0 = cpuTime()
	m.wall0 = time.Now()
	return m
}

func (m *meter) Stop() measured {
	wall := time.Since(m.wall0)
	cpu := cpuTime() - m.cpu0
	peak := m.heap.Stop()
	return measured{wall: wall, cpu: cpu, allocs: mallocs() - m.allocs0, peakHeap: peak}
}
