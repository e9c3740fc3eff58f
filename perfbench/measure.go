package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Host-side counters read around a measured pass. Everything here is host
// time or host memory; simulated quantities never enter these numbers.

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

// snap is a point-in-time reading of the process counters.
type snap struct {
	at      time.Time
	cpu     time.Duration // user+sys CPU of the whole process
	allocs  uint64
	bytes   uint64
	gcs     uint64
	gcCPU   float64
	allCPU  float64
	pauseNS float64 // total GC stop-the-world pause, from the histogram
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func takeSnap() snap {
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	s := snap{at: time.Now(), cpu: cpuTime()}
	s.allocs = ms[0].Value.Uint64()
	s.bytes = ms[1].Value.Uint64()
	s.gcs = ms[2].Value.Uint64()
	s.gcCPU = ms[3].Value.Float64()
	s.allCPU = ms[4].Value.Float64()
	if ms[5].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[5].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			s.pauseNS += float64(n) * (lo + hi) / 2 * 1e9
		}
	}
	return s
}

// usage is the difference between two snaps: what one pass cost.
type usage struct {
	wall    time.Duration
	cpu     time.Duration
	allocs  uint64
	bytes   uint64
	gcs     uint64
	gcFrac  float64 // GC CPU ÷ all CPU, as the runtime estimates both
	pauseMS float64
}

func since(a snap) usage {
	b := takeSnap()
	u := usage{
		wall:    b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		allocs:  b.allocs - a.allocs,
		bytes:   b.bytes - a.bytes,
		gcs:     b.gcs - a.gcs,
		pauseMS: (b.pauseNS - a.pauseNS) / 1e6,
	}
	if d := b.allCPU - a.allCPU; d > 0 {
		u.gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	return u
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
