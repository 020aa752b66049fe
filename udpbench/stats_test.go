package main

import (
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p        float64
		tooFew   int
		enough   int
		atEnough float64
	}{
		{0.50, 19, 20, 10},
		{0.90, 99, 100, 90},
		{0.99, 999, 1000, 990},
	} {
		if v, err := percentile(seq(c.tooFew), c.p); err == nil {
			t.Errorf("p%g of %d samples = %v, want an error (fewer than %d beyond)", c.p*100, c.tooFew, v, minBeyond)
		}
		v, err := percentile(seq(c.enough), c.p)
		if err != nil {
			t.Errorf("p%g of %d samples: %v", c.p*100, c.enough, err)
		} else if v != c.atEnough {
			t.Errorf("p%g of 1..%d = %v, want %v", c.p*100, c.enough, v, c.atEnough)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python 3.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25}, // extrapolates, like Python
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
}
