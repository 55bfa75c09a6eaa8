package metrics

import (
	"math"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.1, 0.5, 1) // deliberately sorted; constructor also sorts
	for _, x := range []float64{0.05, 0.1, 0.3, 0.9, 2.5} {
		h.Observe(x)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-3.85) > 1e-9 {
		t.Fatalf("sum = %g, want 3.85", h.Sum())
	}
	// Cumulative: <=0.1 -> {0.05, 0.1}; <=0.5 -> +0.3; <=1 -> +0.9; +Inf -> +2.5.
	want := []uint64{2, 3, 4, 5}
	got := h.Cumulative()
	if len(got) != len(want) {
		t.Fatalf("cumulative len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
}

func TestHistogramUnsortedAndDuplicateBounds(t *testing.T) {
	h := NewHistogram(1, 0.5, 1, 0.1)
	b := h.Bounds()
	want := []float64{0.1, 0.5, 1}
	if len(b) != len(want) {
		t.Fatalf("bounds = %v, want %v", b, want)
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
}

func TestHistogramEmptyBounds(t *testing.T) {
	h := NewHistogram()
	h.Observe(42)
	if h.Count() != 1 || len(h.Cumulative()) != 1 || h.Cumulative()[0] != 1 {
		t.Fatalf("single +Inf bucket broken: %v", h.Cumulative())
	}
}
