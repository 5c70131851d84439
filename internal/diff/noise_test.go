package diff

import (
	"math"
	"testing"
)

// TestSummarize pins the population-stddev form.
func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Stddev != 2 {
		t.Fatalf("Summarize = %+v, want {8 5 2}", s)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatalf("empty Summarize = %+v", z)
	}
}

// TestBoundAndBeyond: single-repeat sides contribute no spread; with no
// spread at all any difference is beyond (nothing to gate on); with
// spread the gate is 2× the combined SEM.
func TestBoundAndBeyond(t *testing.T) {
	one := Summary{N: 1, Mean: 10}
	if Bound(one, Summary{N: 1, Mean: 20}) != 0 {
		t.Error("single-repeat bound should be 0")
	}
	if !beyond(one, Summary{N: 1, Mean: 10.001}) {
		t.Error("zero bound must pass any difference")
	}

	a := Summarize([]float64{10, 10, 10, 10})
	b := Summarize([]float64{10.5, 10.5, 10.5, 10.5})
	// Both sides have zero stddev: bound 0, any delta passes.
	if !beyond(a, b) {
		t.Error("zero-stddev sides must pass")
	}

	a = Summarize([]float64{9, 10, 11})
	b = Summarize([]float64{9.5, 10.5, 11.5})
	want := 2 * math.Sqrt(2*a.Stddev*a.Stddev/3)
	if got := Bound(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("Bound = %g, want %g", got, want)
	}
	if beyond(a, b) {
		t.Error("0.5 shift inside a ~1.9 bound must gate to noise")
	}
	c := Summarize([]float64{19, 20, 21})
	if !beyond(a, c) {
		t.Error("10 shift beyond the bound must pass")
	}
}

// TestVerdict covers the direction-aware classification.
func TestVerdict(t *testing.T) {
	lo := Summarize([]float64{9, 10, 11})
	hi := Summarize([]float64{19, 20, 21})
	cases := []struct {
		base, vari   Summary
		higherBetter bool
		want         string
	}{
		{lo, hi, true, VerdictImproved},
		{lo, hi, false, VerdictRegressed},
		{hi, lo, true, VerdictRegressed},
		{hi, lo, false, VerdictImproved},
		{lo, lo, true, VerdictNoise}, // delta exactly zero
		{Summarize([]float64{9, 10, 11}), Summarize([]float64{9.2, 10.2, 11.2}), true, VerdictNoise},
	}
	for i, c := range cases {
		got, _, _ := Verdict(c.base, c.vari, c.higherBetter)
		if got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}
