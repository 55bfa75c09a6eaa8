package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewSample(t *testing.T) {
	s := NewSample([]float64{2, 4, 6})
	if s.N != 3 || s.Mean != 4 || s.Min != 2 || s.Max != 6 {
		t.Errorf("sample = %+v", s)
	}
	want := math.Sqrt(8.0 / 3.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, want)
	}
}

func TestNewSampleEmpty(t *testing.T) {
	if s := NewSample(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty sample = %+v", s)
	}
}

func TestFitLineExact(t *testing.T) {
	// y = 3 + 2x exactly.
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-3) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineNoise(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < 1.8 || fit.Slope > 2.2 {
		t.Errorf("Slope = %v, want ~2", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v, want near 1", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{2}); !errors.Is(err, ErrDegenerateFit) {
		t.Errorf("single point err = %v", err)
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 5}); !errors.Is(err, ErrDegenerateFit) {
		t.Errorf("vertical err = %v", err)
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFitLineHorizontal(t *testing.T) {
	fit, err := FitLine([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.R2 != 1 {
		t.Errorf("horizontal fit = %+v", fit)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("Ratio(6,3) != 2")
	}
	if Ratio(6, 0) != 0 {
		t.Error("Ratio by zero != 0")
	}
}

func TestPropertySampleBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e15 {
				return true // skip pathological float inputs
			}
		}
		s := NewSample(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
