package reuse

import (
	"sort"
	"sync"
)

// TopLoopCap bounds the per-report loop list: the heaviest loops by
// retired micro-op mass, which is what the subset selector and the
// report renderers care about.
const TopLoopCap = 12

// BucketReport is one depth bucket with its display label.
type BucketReport struct {
	Label string `json:"label"`
	BucketStat
}

// Report is the aggregated reuse decomposition of one workload: the
// per-depth attribution cells plus the heaviest detected loops.
type Report struct {
	Buckets []BucketReport `json:"buckets"`
	// Loops is the number of distinct loops detected across traces.
	Loops int `json:"loops"`
	// LoopEntries and BackEdges total activations and closed iterations.
	LoopEntries uint64 `json:"loop_entries"`
	BackEdges   uint64 `json:"back_edges"`
	// TotalX86/TotalUOps are the bucket sums (== the pipeline's retired
	// totals for the measured window — the conservation invariant).
	TotalX86  uint64 `json:"total_x86"`
	TotalUOps uint64 `json:"total_uops"`
	// LoopUOps is the baseline micro-op mass retired inside loops
	// (buckets 1+); LoopUOps/TotalUOps is the reuse-mass fraction.
	LoopUOps uint64 `json:"loop_uops"`
	// TopLoops lists the heaviest loops by micro-op mass (capped at
	// TopLoopCap), tagged with their trace index.
	TopLoops []Loop `json:"top_loops,omitempty"`
}

// LoopFrac is the fraction of baseline micro-ops retired inside loops.
func (r *Report) LoopFrac() float64 {
	if r.TotalUOps == 0 {
		return 0
	}
	return float64(r.LoopUOps) / float64(r.TotalUOps)
}

// Bucket returns the stats for a depth bucket (zero value out of range).
func (r *Report) Bucket(i int) BucketStat {
	if i >= 0 && i < len(r.Buckets) {
		return r.Buckets[i].BucketStat
	}
	return BucketStat{}
}

// Collector aggregates per-engine detectors into one workload report.
// Like telemetry.Collector it is handed to the simulation via
// sim.Options and attached per engine after warmup; each trace gets its
// own Probe (single-goroutine, like the engine), and Close folds the
// probe's totals in under the collector's lock.
type Collector struct {
	mu        sync.Mutex
	buckets   [NumBuckets]BucketStat
	loops     []Loop
	entries   uint64
	backEdges uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Probe is the per-engine observer: a Detector plus the fold-back link.
type Probe struct {
	Detector
	c     *Collector
	trace int
}

// Attach returns a fresh probe for one engine run over the given trace
// index. Close it once the run finishes.
func (c *Collector) Attach(trace int) *Probe {
	return &Probe{Detector: *NewDetector(), c: c, trace: trace}
}

// Close folds the probe's totals into its collector. Idempotent calls
// would double-count; call exactly once, after the engine's last run.
func (p *Probe) Close() {
	if p.c == nil {
		return
	}
	c := p.c
	p.c = nil
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.buckets {
		c.buckets[i].Add(&p.buckets[i])
	}
	for _, l := range p.Loops() {
		l.Trace = p.trace
		c.loops = append(c.loops, l)
		c.entries += l.Entries
		c.backEdges += l.BackEdges
	}
}

// Snapshot assembles the report accumulated so far.
func (c *Collector) Snapshot() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{
		Buckets:     make([]BucketReport, NumBuckets),
		Loops:       len(c.loops),
		LoopEntries: c.entries,
		BackEdges:   c.backEdges,
	}
	for i := range c.buckets {
		r.Buckets[i] = BucketReport{Label: BucketLabel(i), BucketStat: c.buckets[i]}
		r.TotalX86 += c.buckets[i].X86
		r.TotalUOps += c.buckets[i].UOps
		if i > 0 {
			r.LoopUOps += c.buckets[i].UOps
		}
	}
	top := make([]Loop, len(c.loops))
	copy(top, c.loops)
	sort.SliceStable(top, func(i, j int) bool { return top[i].UOps > top[j].UOps })
	if len(top) > TopLoopCap {
		top = top[:TopLoopCap]
	}
	r.TopLoops = top
	return r
}

// Signature flattens a report into the reuse-mass vector Select
// consumes: baseline micro-ops per {depth bucket × class} cell, plus
// the per-bucket frame-hit and optimizer-removal masses. Dimensions are
// positional, so signatures from different workloads align.
func Signature(r *Report) []float64 {
	sig := make([]float64, 0, NumBuckets*(NumClasses+2))
	for i := 0; i < NumBuckets; i++ {
		b := r.Bucket(i)
		for _, c := range b.Classes {
			sig = append(sig, float64(c))
		}
		sig = append(sig, float64(b.FrameHits), float64(b.OptRemoved))
	}
	return sig
}
