package server

import (
	"net/http"
	"sync"

	"repro/internal/api"
	"repro/internal/cycleprof"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
)

// cycleMetrics accumulates cycles-experiment results across finished
// jobs for the /metrics exposition: attributed fetch cycles per bin
// plus loop-join volume. Profiling forces execution — memoization never
// skips a cycles run — so every cycles job contributes samples.
type cycleMetrics struct {
	mu         sync.Mutex
	jobs       uint64
	bins       [pipeline.NumBins]uint64
	loops      uint64
	loopCycles uint64
}

func newCycleMetrics() *cycleMetrics { return &cycleMetrics{} }

// fold merges one finished cycles job's report into the aggregates.
func (m *cycleMetrics) fold(rep *sim.CycleReport) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs++
	for i := range rep.Rows {
		r := &rep.Rows[i].Report
		for b := range r.Bins {
			m.bins[b] += r.Bins[b]
		}
		m.loops += uint64(len(r.Loops))
		for j := range r.Loops {
			m.loopCycles += r.Loops[j].Cycles
		}
	}
}

// render writes the replayd_fetch_cycles_* and replayd_cycleprof_*
// families.
func (m *cycleMetrics) render(p *stats.Prom) {
	m.mu.Lock()
	jobs, bins, loops, loopCycles := m.jobs, m.bins, m.loops, m.loopCycles
	m.mu.Unlock()

	p.Counter("replayd_cycleprof_jobs_total", "Cycles-experiment jobs whose profiles were folded into these aggregates.", float64(jobs))
	samples := make([]stats.LabeledSample, pipeline.NumBins)
	for i := range bins {
		samples[i] = stats.LabeledSample{Label: pipeline.Bin(i).String(), Value: float64(bins[i])}
	}
	p.LabeledCounter("replayd_fetch_cycles_total",
		"Fetch cycles attributed by the guest-cycle profiler to each fetch bin across cycles-experiment runs; summed over bins this equals the measured cycle total of those runs (the conservation invariant).",
		"bin", samples)
	p.Counter("replayd_cycleprof_loops_total", "Loop-joined hotspots across cycles-experiment runs.", float64(loops))
	p.Counter("replayd_cycleprof_loop_cycles_total", "Fetch cycles attributed inside detected loop bodies across cycles-experiment runs (inclusive rollups; nested loops overlap).", float64(loopCycles))
}

// handleProfile serves a finished cycles job's guest profile. The
// format query parameter selects the representation: "json" (default)
// returns the full sim.CycleReport, "pprof" the gzipped pprof protobuf
// (samples = cycles, labels = bin, locations = guest PCs under
// synthetic loop frames), and "text" collapsed flame stacks. The
// profile exists only on jobs submitted with experiment "cycles".
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json", "pprof", "text":
	default:
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": "unknown format; want json, pprof, or text"})
		return
	}
	res := s.finishedReport(w, r, "profile", "cycle profile", api.ExpCycles,
		func(res *api.RunResponse) bool { return res.Cycles != nil })
	if res == nil {
		return
	}
	switch format {
	case "pprof":
		data, err := cycleprof.Profile(res.Cycles.Profiles())
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="guest.pb.gz"`)
		w.Write(data)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(cycleprof.FlameText(res.Cycles.Profiles()))
	default:
		writeJSON(w, http.StatusOK, res.Cycles)
	}
}
