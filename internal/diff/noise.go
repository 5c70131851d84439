package diff

import "math"

// The significance gate for run deltas: a metric's repeat samples are
// reduced to a Summary, and a variant-vs-baseline delta counts as a
// change only beyond twice the combined standard error of the means.

// Summary is the sufficient statistic of one metric's repeated samples.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev,omitempty"`
}

// Summarize reduces repeat samples to their summary. The standard
// deviation is the population form.
func Summarize(samples []float64) Summary {
	s := Summary{N: len(samples)}
	if s.N == 0 {
		return s
	}
	for _, v := range samples {
		s.Mean += v
	}
	s.Mean /= float64(s.N)
	var sq float64
	for _, v := range samples {
		d := v - s.Mean
		sq += d * d
	}
	s.Stddev = math.Sqrt(sq / float64(s.N))
	return s
}

// Bound returns the significance bound for comparing two summaries:
// twice the combined standard error of the two means. A side with a
// single repeat carries no spread information and contributes nothing;
// when neither side does, the bound is 0.
func Bound(a, b Summary) float64 {
	se := 0.0
	if a.N > 1 {
		se += a.Stddev * a.Stddev / float64(a.N)
	}
	if b.N > 1 {
		se += b.Stddev * b.Stddev / float64(b.N)
	}
	if se == 0 {
		return 0
	}
	return 2 * math.Sqrt(se)
}

// beyond reports whether the two means differ by more than Bound.
// With no spread information (bound 0) any difference passes — a
// single-repeat comparison has nothing to gate on.
func beyond(a, b Summary) bool {
	bd := Bound(a, b)
	if bd == 0 {
		return true
	}
	return math.Abs(b.Mean-a.Mean) > bd
}

// Direction-aware verdicts for a variant-vs-baseline delta.
const (
	VerdictImproved  = "improved"
	VerdictRegressed = "regressed"
	VerdictNoise     = "noise"
)

// Verdict classifies variant against baseline: the raw mean delta
// (variant − baseline), the significance bound it was gated on, and
// whether the change is an improvement, a regression, or noise given
// the metric's better-direction. A delta of exactly zero is noise
// regardless of the bound.
func Verdict(base, variant Summary, higherBetter bool) (verdict string, delta, bound float64) {
	delta = variant.Mean - base.Mean
	bound = Bound(base, variant)
	if delta == 0 || !beyond(base, variant) {
		return VerdictNoise, delta, bound
	}
	improved := delta > 0
	if !higherBetter {
		improved = !improved
	}
	if improved {
		return VerdictImproved, delta, bound
	}
	return VerdictRegressed, delta, bound
}
