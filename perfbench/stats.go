package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime returns the CPU time (user plus system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// samples is a set of measurements in one unit.
type samples []float64

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile (0..1) of s by linear interpolation.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

// tailPercentiles are the candidate tail percentiles, highest first. They
// are spaced so that one workload's sample count, which varies from run to
// run, keeps selecting the same one: p99 would need 1000 samples, which
// sync's 900-1200 payloads and live's 700-1100 requests a run straddle,
// so between p99.9 and p95 there is none.
var tailPercentiles = []float64{99.99, 99.9, 95, 90, 75}

// tail returns the highest candidate percentile that has at least ten
// samples beyond it, with its value. ok is false with fewer than forty
// samples: there the median is the only figure worth reporting.
func (s samples) tail() (pct, value float64, ok bool) {
	if len(s) < 40 {
		return 0, 0, false
	}
	for _, p := range tailPercentiles {
		if float64(len(s))*(1-p/100) >= 10 {
			return p, s.quantile(p / 100), true
		}
	}
	return 0, 0, false
}

// freshTail is the freshness tail's quantile on every workload: the
// highest that live's 60-80 blocks a run support, and one that compares
// like with like across workloads.
const freshTail = 0.75

// setTail sets a tail metric, noting which percentile of how many samples
// it is. Below forty samples the tail is the largest sample.
func setTail(r *run, name, unit string, s samples, what string) {
	if p, v, ok := s.tail(); ok {
		r.set(name, unit, v)
		r.note("%s: p%g of %d %s", name, p, len(s), what)
		return
	}
	r.set(name, unit, s.quantile(1))
	r.note("%s: the largest of only %d %s", name, len(s), what)
}

// gcCPUSeconds reads the runtime's cumulative estimate of the CPU time spent
// in garbage collection. The runtime updates it at the end of each GC cycle,
// so only sums over many calls are meaningful.
func gcCPUSeconds() float64 {
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(m)
	return m[0].Value.Float64()
}

// allocCounters returns the cumulative heap bytes and objects allocated.
func allocCounters() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
