package main

import (
	"sort"
	"time"
)

// The box these numbers come from runs allocation-heavy code at a pace that
// drifts by 20-45 % over stretches from a fraction of a second to half an
// hour (integer loops are untouched, steal time does not show it), which
// is more than any bound allows and more than any statistic of a 10 s run
// undoes. So every timed stretch is followed, outside its window, by a
// calibration kernel of fixed work — small allocations, map inserts, a
// pointer chase: what the simulator's own time goes into — and its time is
// divided by the kernel's pace: the reported times are what the stretch
// would have taken with the host at its nominal pace. The kernel shares
// nothing with the code under test but the Go runtime.

// calibNominal is what one run of the calibration kernel takes on the
// reference box (Xeon @ 2.10 GHz, 2 cores) when the box is calm.
const calibNominal = 200 * time.Microsecond

type calibNode struct {
	next *calibNode
	key  uint64
	pad  [2]uint64
}

var calibSink uint64

// calibKernel does a fixed amount of allocator, map and pointer-chasing
// work and returns how long it took.
func calibKernel() time.Duration {
	start := time.Now()
	m := make(map[uint64]*calibNode, 512)
	var head *calibNode
	x := uint64(88172645463325252)
	for i := 0; i < 3000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &calibNode{next: head, key: x}
		head = n
		m[x&1023] = n
	}
	var s uint64
	for n := head; n != nil; n = n.next {
		s += n.key
	}
	for k, v := range m {
		s += k + v.key
	}
	calibSink += s
	return time.Since(start)
}

// hostPace measures the host's pace right after a timed stretch of length
// d: the median of enough kernel runs to take about a twenty-fifth of d
// (at least one, at most 25), over the nominal kernel time. 1 is the
// reference box when calm; 1.3 is a host that takes 30 % longer.
func hostPace(d time.Duration) float64 {
	runs := min(max(int(d/(25*calibNominal)), 1), 25)
	samples := make([]time.Duration, runs)
	for i := range samples {
		samples[i] = calibKernel()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(samples[runs/2]) / float64(calibNominal)
}
