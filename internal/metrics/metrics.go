// Package metrics provides the small statistical toolkit the experiment
// harness uses: sample aggregation across replicated trials and ordinary
// least-squares fits, which back the paper's "linearly proportional to the
// MRAI value" observations (Observation 1 and 2).
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// Sample summarises a set of observations of one metric.
type Sample struct {
	N    int
	Mean float64
	Std  float64 // population standard deviation
	Min  float64
	Max  float64
}

// NewSample computes a Sample over xs. An empty input yields the zero
// Sample.
func NewSample(xs []float64) Sample {
	if len(xs) == 0 {
		return Sample{}
	}
	s := Sample{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	s.Std = math.Sqrt(varSum / float64(s.N))
	return s
}

// String renders "mean ± std (n=N)".
func (s Sample) String() string {
	return fmt.Sprintf("%.3g ± %.2g (n=%d)", s.Mean, s.Std, s.N)
}

// LinearFit is an ordinary least-squares line y = Intercept + Slope*x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination; 1 means a perfect linear
	// relationship.
	R2 float64
}

// ErrDegenerateFit is returned when a fit is requested over fewer than two
// distinct x values.
var ErrDegenerateFit = errors.New("metrics: linear fit needs >= 2 distinct x values")

// FitLine computes the least-squares line through (xs[i], ys[i]).
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("metrics: x/y length mismatch %d != %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinearFit{}, ErrDegenerateFit
	}
	var sumX, sumY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/n, sumY/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-meanX, ys[i]-meanY
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	//detlint:allow floateq exact zero is the degenerate all-equal-x sentinel, not a tolerance check
	if sxx == 0 {
		return LinearFit{}, ErrDegenerateFit
	}
	fit := LinearFit{Slope: sxy / sxx}
	fit.Intercept = meanY - fit.Slope*meanX
	//detlint:allow floateq exact zero distinguishes a perfectly horizontal fit, where R2 is 1 by definition
	if syy == 0 {
		// A perfectly horizontal relationship is perfectly linear.
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// Ratio returns a/b, or 0 when b is 0 — convenient for normalised metrics
// like "TTL exhaustions normalised by standard BGP" (Figures 8a, 9a).
func Ratio(a, b float64) float64 {
	//detlint:allow floateq exact zero guards the division; near-zero b must still divide
	if b == 0 {
		return 0
	}
	return a / b
}
