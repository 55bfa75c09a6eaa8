package metrics

import "sort"

// Histogram is a fixed-bucket histogram in the cumulative-exposition
// style: bucket i counts observations x <= Bounds[i], plus one implicit
// overflow bucket (+Inf). It backs the bgpd /metrics per-phase latency
// exposition. The type is a plain accumulator — not safe for concurrent
// use; callers that observe from several goroutines must serialize.
type Histogram struct {
	// bounds are the ascending upper bounds; counts has len(bounds)+1
	// slots, the last being the +Inf overflow bucket.
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

// NewHistogram builds a histogram over the given upper bounds. Bounds are
// sorted and deduplicated defensively, so callers can pass literals in
// any order; an empty bounds list yields a single +Inf bucket.
func NewHistogram(bounds ...float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	dedup := bs[:0]
	for i, b := range bs {
		if i > 0 && b <= dedup[len(dedup)-1] {
			continue
		}
		dedup = append(dedup, b)
	}
	return &Histogram{
		bounds: dedup,
		counts: make([]uint64, len(dedup)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x: the bucket x falls in
	h.counts[i]++
	h.sum += x
	h.n++
}

// Bounds returns the ascending bucket upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Cumulative returns the cumulative counts per bound, exposition-style:
// Cumulative()[i] counts observations <= Bounds()[i], and the final extra
// element is the total count (the +Inf bucket).
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		out[i] = acc
	}
	return out
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() uint64 { return h.n }
func (h *Histogram) Sum() float64  { return h.sum }
