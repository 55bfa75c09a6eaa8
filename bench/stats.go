package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (0 for an empty sample). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianDur is median over durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// quantilesMs returns the 10th, 25th, 50th, 75th and 90th percentile of
// ds in ms (nearest rank).
func quantilesMs(ds []time.Duration) (q [5]float64) {
	if len(ds) == 0 {
		return q
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, p := range [5]float64{0.10, 0.25, 0.50, 0.75, 0.90} {
		q[i] = ms(s[int(p*float64(len(s)-1)+0.5)])
	}
	return q
}

// tail returns the highest order statistic that still has at least ten
// samples beyond it, and the percentile it sits at. With fewer than
// eleven samples no such statistic exists and the maximum is returned.
func tail(ds []time.Duration) (d time.Duration, pct float64) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// allocCounter reads the process-wide allocation counters without
// stopping the world (runtime.ReadMemStats would, once per op).
type allocCounter struct {
	samples [2]metrics.Sample
}

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.samples[0].Name = "/gc/heap/allocs:objects"
	a.samples[1].Name = "/gc/heap/allocs:bytes"
	return a
}

// read returns the cumulative objects and bytes allocated so far.
func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.samples[:])
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}

// exactMallocs returns the cumulative count of heap objects allocated, to
// the object: unlike the runtime/metrics counters it flushes every
// per-thread cache first, at the price of stopping the world, so it is for
// short stretches measured once, not for per-op windows.
func exactMallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM)
// in MiB, or 0 where /proc is unavailable. It is a diagnostic, not a gated
// metric: with heaps of a few MiB it is set by where in a trial the
// collector's cycles happened to fall, and moves by a quarter between
// identical runs.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSnapshot is a point-in-time reading of host and own CPU time.
type cpuSnapshot struct {
	hostBusy, hostTotal float64 // jiffies, from /proc/stat
	own                 time.Duration
}

func readCPU() cpuSnapshot {
	var snap cpuSnapshot
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := bytes.Cut(data, []byte{'\n'})
		fields := bytes.Fields(line)
		for i, f := range fields {
			if i == 0 {
				continue // "cpu"
			}
			v, err := strconv.ParseFloat(string(f), 64)
			if err != nil {
				break
			}
			snap.hostTotal += v
			// Fields 4 and 5 are idle and iowait; everything else is busy.
			if i != 4 && i != 5 {
				snap.hostBusy += v
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		snap.own = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return snap
}

// otherCPUShare is the share of the host's CPU capacity that processes
// other than this one consumed between two snapshots — a noisy run is
// recognisable by it instead of being read as a regression.
func otherCPUShare(from, to cpuSnapshot) float64 {
	total := to.hostTotal - from.hostTotal
	if total <= 0 {
		return 0
	}
	const jiffiesPerSecond = 100 // USER_HZ on every Linux the toolchain targets
	own := (to.own - from.own).Seconds() * jiffiesPerSecond
	other := (to.hostBusy - from.hostBusy) - own
	if other < 0 {
		other = 0
	}
	return other / total
}
