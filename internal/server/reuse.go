package server

import (
	"net/http"
	"sync"

	"repro/internal/api"
	"repro/internal/reuse"
	"repro/internal/sim"
	"repro/internal/stats"
)

// reuseMetrics accumulates reuse-experiment results across finished
// jobs for the /metrics exposition: per-loop-depth-bucket counters plus
// loop-shape histograms whose bucket exemplars carry the trace ID of a
// recent contributing job, so a shift visible on a dashboard resolves
// to a stored trace (and from there to the job) in one hop. Memoization
// never skips reuse runs — reuse attribution forces execution — so
// every reuse job contributes samples.
type reuseMetrics struct {
	mu        sync.Mutex
	jobs      uint64
	loops     uint64
	entries   uint64
	backEdges uint64
	buckets   [reuse.NumBuckets]reuse.BucketStat

	// tripHist and uopsHist observe each workload's heaviest loops
	// (Report.TopLoops), not every detected loop: the per-workload
	// report already caps at reuse.TopLoopCap, and the heavy tail is
	// what capacity planning for the frame cache cares about.
	tripHist *stats.Histogram
	uopsHist *stats.Histogram
}

func newReuseMetrics() *reuseMetrics {
	return &reuseMetrics{
		tripHist: stats.NewHistogram("replayd_reuse_loop_trip_count",
			"Estimated trip count of each heaviest-by-uops loop per reuse-experiment workload; bucket exemplars carry the trace ID of a recent contributing job.",
			2, 4, 8, 16, 32, 64, 128, 256, 1024),
		uopsHist: stats.NewHistogram("replayd_reuse_loop_uops",
			"Retired micro-ops attributed to each heaviest loop per reuse-experiment workload; bucket exemplars carry the trace ID of a recent contributing job.",
			100, 1000, 10_000, 100_000, 1_000_000, 10_000_000),
	}
}

// fold merges one finished reuse job's report into the aggregates.
func (m *reuseMetrics) fold(rep *sim.ReuseReport, traceID string) {
	m.mu.Lock()
	m.jobs++
	for _, row := range rep.Rows {
		m.loops += uint64(row.Report.Loops)
		m.entries += row.Report.LoopEntries
		m.backEdges += row.Report.BackEdges
		for i := range row.Report.Buckets {
			m.buckets[i].Add(&row.Report.Buckets[i].BucketStat)
		}
	}
	m.mu.Unlock()
	for _, row := range rep.Rows {
		for _, l := range row.Report.TopLoops {
			m.tripHist.ObserveEx(uint64(l.TripCount()), traceID)
			m.uopsHist.ObserveEx(l.UOps, traceID)
		}
	}
}

// render writes the replayd_reuse_* families.
func (m *reuseMetrics) render(p *stats.Prom) {
	m.mu.Lock()
	jobs, loops, entries, backEdges := m.jobs, m.loops, m.entries, m.backEdges
	buckets := m.buckets
	m.mu.Unlock()

	p.Counter("replayd_reuse_jobs_total", "Reuse-experiment jobs whose reports were folded into these aggregates.", float64(jobs))
	p.Counter("replayd_reuse_loops_total", "Distinct loops detected across reuse-experiment runs.", float64(loops))
	p.Counter("replayd_reuse_loop_entries_total", "Loop activations (entries from outside the loop body) across reuse-experiment runs.", float64(entries))
	p.Counter("replayd_reuse_back_edges_total", "Taken backward control transfers recognized as loop back edges across reuse-experiment runs.", float64(backEdges))

	sample := func(f func(b *reuse.BucketStat) uint64) []stats.LabeledSample {
		out := make([]stats.LabeledSample, reuse.NumBuckets)
		for i := range buckets {
			out[i] = stats.LabeledSample{Label: reuse.BucketLabel(i), Value: float64(f(&buckets[i]))}
		}
		return out
	}
	p.LabeledCounter("replayd_reuse_uops_total",
		"Baseline retired micro-ops attributed to each loop-depth bucket; summed over buckets this equals replayd_pipeline_uops_baseline_total restricted to reuse runs.",
		"bucket", sample(func(b *reuse.BucketStat) uint64 { return b.UOps }))
	p.LabeledCounter("replayd_reuse_covered_uops_total",
		"Micro-ops retired from frames (reuse-covered work) attributed to each loop-depth bucket.",
		"bucket", sample(func(b *reuse.BucketStat) uint64 { return b.Covered }))
	p.LabeledCounter("replayd_reuse_frame_builds_total",
		"Frames constructed while execution sat in each loop-depth bucket.",
		"bucket", sample(func(b *reuse.BucketStat) uint64 { return b.FrameBuilds }))
	p.LabeledCounter("replayd_reuse_frame_hits_total",
		"Frame-cache fetches while execution sat in each loop-depth bucket.",
		"bucket", sample(func(b *reuse.BucketStat) uint64 { return b.FrameHits }))
	p.LabeledCounter("replayd_reuse_opt_removed_total",
		"Micro-ops removed by the frame optimizer, attributed to the loop-depth bucket live when the frame finished optimizing.",
		"bucket", sample(func(b *reuse.BucketStat) uint64 { return b.OptRemoved }))
	p.LabeledCounter("replayd_reuse_evictions_total",
		"Frame/trace-cache evictions while execution sat in each loop-depth bucket.",
		"bucket", sample(func(b *reuse.BucketStat) uint64 { return b.Evictions }))

	p.Histogram(m.tripHist.Snapshot())
	p.Histogram(m.uopsHist.Snapshot())
}

// handleReuse serves a finished reuse job's report — the per-workload
// loop decomposition plus the ranked representative subset — as JSON.
// The report exists only on jobs submitted with experiment "reuse".
func (s *Server) handleReuse(w http.ResponseWriter, r *http.Request) {
	res := s.finishedReport(w, r, "reuse report", "reuse report", api.ExpReuse,
		func(res *api.RunResponse) bool { return res.Reuse != nil })
	if res != nil {
		writeJSON(w, http.StatusOK, res.Reuse)
	}
}
