package stats

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Exemplar links one recent observation in a histogram bucket to the
// trace that produced it, per the OpenMetrics exemplar model: a latency
// spike visible in /metrics resolves to a stored trace in one hop.
type Exemplar struct {
	TraceID string
	Value   float64
	Ts      time.Time
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe
// calls. Bucket upper bounds are set at construction and never change,
// so the hot path is a binary search plus one atomic increment; there
// is no locking anywhere. Values are unsigned integers (cycles, uop
// counts) because that is what the simulator produces; the Prometheus
// exposition converts to float64 at render time.
//
// Each bucket additionally holds the exemplar of its most recent
// ObserveEx observation (last-write-wins via an atomic pointer).
type Histogram struct {
	name      string
	help      string
	bounds    []float64 // inclusive upper bounds, strictly increasing
	counts    []atomic.Uint64
	exemplars []atomic.Pointer[Exemplar]
	sum       atomic.Uint64
	total     atomic.Uint64
}

// NewHistogram returns a histogram with the given inclusive upper
// bounds, which must be strictly increasing. An implicit +Inf bucket
// catches everything above the last bound.
func NewHistogram(name, help string, bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram %q bounds not increasing: %v", name, bounds))
		}
	}
	return &Histogram{
		name:      name,
		help:      help,
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Name returns the metric name given at construction.
func (h *Histogram) Name() string { return h.name }

// Help returns the help text given at construction.
func (h *Histogram) Help() string { return h.help }

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.counts[h.bucket(float64(v))].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// ObserveEx records one sample and, when traceID is non-empty, stamps
// the bucket's exemplar with it. A bucket already holding an exemplar
// from the same trace is left alone — hot sites (FetchRetire observes
// every uop) then pay one pointer load instead of an allocation per
// sample, while a new trace still replaces a stale exemplar.
func (h *Histogram) ObserveEx(v uint64, traceID string) {
	f := float64(v)
	i := h.bucket(f)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
	if traceID != "" {
		if old := h.exemplars[i].Load(); old == nil || old.TraceID != traceID {
			h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: f, Ts: time.Now()})
		}
	}
}

func (h *Histogram) bucket(f float64) int {
	// Bucket count is small (≲16); a linear scan beats binary search on
	// branch prediction and is simpler.
	i := 0
	for i < len(h.bounds) && f > h.bounds[i] {
		i++
	}
	return i
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (not cumulative); Counts[len(Bounds)] is the
// +Inf bucket. Exemplars is aligned with Counts; an entry with an empty
// TraceID means the bucket has none. The copy is not atomic across
// buckets — concurrent Observe calls may land between bucket reads —
// which is fine for monitoring output.
type HistogramSnapshot struct {
	Name      string
	Help      string
	Bounds    []float64
	Counts    []uint64
	Exemplars []Exemplar
	Sum       float64
	Count     uint64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   h.name,
		Help:   h.help,
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    float64(h.sum.Load()),
		Count:  h.total.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Exemplars = loadExemplars(h.exemplars)
	return s
}

// Mean returns the average of all observed samples, or 0 if empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// LatencyHistogram is Histogram's wall-clock front end: observations
// are durations, and bucket bounds, the exported sum and exemplar values
// are in seconds (the Prometheus convention for *_seconds metrics).
// Underneath, a Histogram counts nanoseconds against the bounds scaled
// to nanoseconds, so the hot path stays integer-atomic; the conversion
// back to seconds happens only in Snapshot.
type LatencyHistogram struct {
	h      *Histogram
	bounds []float64 // seconds
}

// DefaultLatencyBounds covers the service-latency range replayd sees:
// 1ms through 60s, roughly geometric.
var DefaultLatencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// NewLatencyHistogram returns a duration histogram with the given
// inclusive upper bounds in seconds (strictly increasing; +Inf bucket
// implicit).
func NewLatencyHistogram(name, help string, bounds ...float64) *LatencyHistogram {
	ns := make([]float64, len(bounds))
	for i, b := range bounds {
		ns[i] = b * 1e9
	}
	return &LatencyHistogram{h: NewHistogram(name, help, ns...), bounds: bounds}
}

// Observe records one duration.
func (h *LatencyHistogram) Observe(d time.Duration) { h.ObserveEx(d, "") }

// ObserveEx records one duration and, when traceID is non-empty,
// stamps the bucket's exemplar with it. A negative duration counts as 0.
func (h *LatencyHistogram) ObserveEx(d time.Duration, traceID string) {
	if d < 0 {
		d = 0
	}
	h.h.ObserveEx(uint64(d), traceID)
}

// Snapshot copies the current state with bounds, Sum and exemplar
// values in seconds.
func (h *LatencyHistogram) Snapshot() HistogramSnapshot {
	s := h.h.Snapshot()
	s.Bounds = h.bounds
	s.Sum /= 1e9
	for i := range s.Exemplars {
		s.Exemplars[i].Value /= 1e9
	}
	return s
}

func loadExemplars(ptrs []atomic.Pointer[Exemplar]) []Exemplar {
	out := make([]Exemplar, len(ptrs))
	any := false
	for i := range ptrs {
		if e := ptrs[i].Load(); e != nil {
			out[i] = *e
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}
