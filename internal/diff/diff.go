// Package diff is the ablation diff engine: it observes two runs of
// the simulator — baseline and variant — with a probe that partitions
// every pipeline.Probe event (retired work, per-pass optimizer
// removals, charged fetch cycles) over the loops the engine's shared
// internal/reuse detector finds, then joins the two partitions into a
// conservation-exact delta report: for each loop, which pass removed
// how many micro-ops and how many fetch cycles that bought.
//
// Unlike internal/cycleprof's loop join — an inclusive interval rollup
// where an outer loop's row contains its inner loops — the diff
// probe attributes each event to the innermost active loop at event
// time, so the rows form an exact partition: every retired micro-op,
// every pass kill, and every charged cycle lands in exactly one row
// (straight-line code gets a pseudo-row per trace). Per side, the row
// sums therefore equal the measured window's Stats counters, and per
// comparison the per-row deltas sum exactly to the difference of the
// two runs' counters — the residual ("unattributed delta") is zero by
// construction, and the report computes it honestly so tests can pin
// it.
package diff

import (
	"sort"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/reuse"
)

// PassCount is what one optimizer pass did inside one loop row.
type PassCount struct {
	Calls     uint64 `json:"calls"`
	Killed    uint64 `json:"killed"`
	Rewritten uint64 `json:"rewritten"`
}

func (p *PassCount) add(o PassCount) {
	p.Calls += o.Calls
	p.Killed += o.Killed
	p.Rewritten += o.Rewritten
}

// Row is one side's accumulation cell for a single loop (or the
// straight-line pseudo-row of one trace): the retired work, the
// optimizer activity, and the fetch cycles observed while that loop
// was the innermost active one.
type Row struct {
	Trace  int    `json:"trace"`
	Header uint32 `json:"header"`
	Tail   uint32 `json:"tail"`
	// Straight marks the pseudo-row collecting everything observed
	// outside any detected loop.
	Straight bool `json:"straight,omitempty"`
	Nest     int  `json:"nest,omitempty"`

	X86         uint64 `json:"x86"`
	UOps        uint64 `json:"uops"` // decoded (baseline) micro-ops
	UOpsRetired uint64 `json:"uops_retired"`
	Covered     uint64 `json:"covered"`
	FrameHits   uint64 `json:"frame_hits"`
	// OptRemoved is the net micro-op removal of optimizer runs that
	// fired in this row's context; by the opt invariant it equals the
	// summed Killed of the row's Passes.
	OptRemoved uint64                   `json:"opt_removed"`
	Cycles     uint64                   `json:"cycles"`
	Bins       [pipeline.NumBins]uint64 `json:"bins"`
	Passes     map[string]PassCount     `json:"passes,omitempty"`
}

func (r *Row) addPass(pass string, killed, rewritten int) {
	if r.Passes == nil {
		r.Passes = make(map[string]PassCount)
	}
	pc := r.Passes[pass]
	pc.Calls++
	pc.Killed += uint64(killed)
	pc.Rewritten += uint64(rewritten)
	r.Passes[pass] = pc
}

func (r *Row) add(o *Row) {
	r.X86 += o.X86
	r.UOps += o.UOps
	r.UOpsRetired += o.UOpsRetired
	r.Covered += o.Covered
	r.FrameHits += o.FrameHits
	r.OptRemoved += o.OptRemoved
	r.Cycles += o.Cycles
	for i := range r.Bins {
		r.Bins[i] += o.Bins[i]
	}
	if o.Tail > r.Tail {
		r.Tail = o.Tail
	}
	if o.Nest > r.Nest {
		r.Nest = o.Nest
	}
	for name, pc := range o.Passes {
		if r.Passes == nil {
			r.Passes = make(map[string]PassCount)
		}
		cur := r.Passes[name]
		cur.add(pc)
		r.Passes[name] = cur
	}
}

// rowKey identifies a row across traces.
type rowKey struct {
	trace    int
	header   uint32
	straight bool
}

// Collector aggregates per-engine probes into one run profile. Like
// the reuse and cycleprof collectors it is handed to the simulation via
// sim.Options and attached per engine after warmup; each trace gets its
// own Probe, and Close folds the probe's rows in under the lock.
type Collector struct {
	mu    sync.Mutex
	rows  map[rowKey]*Row
	order []rowKey
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{rows: make(map[rowKey]*Row)} }

// Probe is the per-engine diff probe, a pipeline.Probe: it bins every
// event into the row of the innermost loop active at event time, as
// reported by the engine's shared loop detector, which must be attached
// before it. Single-goroutine, like the engine that drives it.
type Probe struct {
	pipeline.NopProbe
	loops    *reuse.Detector
	rows     map[uint32]*Row // keyed by loop header PC
	order    []uint32        // header insertion order, for deterministic folds
	straight Row
	c        *Collector
	trace    int
}

// Attach returns a fresh probe for one engine run over the given trace
// index, partitioned over the loops the engine's detector finds. Close
// it once the run finishes.
func (c *Collector) Attach(trace int, loops *reuse.Detector) *Probe {
	return &Probe{loops: loops, rows: make(map[uint32]*Row),
		straight: Row{Straight: true}, c: c, trace: trace}
}

// row returns the accumulation cell for the current innermost active
// loop (the straight-line pseudo-row outside any loop).
func (p *Probe) row() *Row {
	h, ok := p.loops.Active()
	if !ok {
		return &p.straight
	}
	r := p.rows[h]
	if r == nil {
		r = &Row{Header: h}
		p.rows[h] = r
		p.order = append(p.order, h)
	}
	return r
}

// Retire attributes one retired instruction. The shared detector has
// already applied its control effects, so the slot counts toward the
// loop active after them — a back edge's closing branch counts toward
// the loop it closes.
func (p *Probe) Retire(s *pipeline.Slot, fromFrame bool, uopsExecuted int) {
	r := p.row()
	r.X86++
	n := uint64(len(s.UOps))
	r.UOps += n
	r.UOpsRetired += uint64(uopsExecuted)
	if fromFrame {
		r.Covered += n
	}
}

// FrameHit attributes a frame-cache fetch to the active loop.
func (p *Probe) FrameHit() { p.row().FrameHits++ }

// FrameRetired attributes a committed frame's optimized body.
func (p *Probe) FrameRetired(uops int) { p.row().UOpsRetired += uint64(uops) }

// OptRemoved attributes an optimizer run's net removal. It fires from
// the same optimizer run as the per-pass feed (Pass), so per row the
// two agree: OptRemoved equals the summed Killed of Passes.
func (p *Probe) OptRemoved(removed int) { p.row().OptRemoved += uint64(removed) }

// Pass attributes one changed optimizer pass invocation to the active
// loop.
func (p *Probe) Pass(pass string, killed, rewritten int) {
	p.row().addPass(pass, killed, rewritten)
}

// Charge attributes n fetch cycles charged to bin to the active loop.
// The engine's only two cycle-charging paths call this, so the row
// sums equal Stats.Cycles/Bins exactly.
func (p *Probe) Charge(pc uint32, bin pipeline.Bin, n uint64) {
	r := p.row()
	r.Cycles += n
	r.Bins[bin] += n
}

// Close folds the probe's rows into its collector. Call exactly once,
// after the engine's last run.
func (p *Probe) Close() {
	if p.c == nil {
		return
	}
	c := p.c
	p.c = nil

	// Stamp loop geometry (tail, nesting) from the shared detector
	// before folding.
	for _, l := range p.loops.Loops() {
		if r := p.rows[l.Header]; r != nil {
			r.Tail = l.Tail
			r.Nest = l.Nest
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	fold := func(k rowKey, src *Row) {
		dst := c.rows[k]
		if dst == nil {
			dst = &Row{Trace: k.trace, Header: k.header, Straight: k.straight}
			c.rows[k] = dst
			c.order = append(c.order, k)
		}
		dst.add(src)
	}
	if s := &p.straight; s.X86 > 0 || s.Cycles > 0 || s.UOps > 0 || s.OptRemoved > 0 ||
		s.FrameHits > 0 || s.UOpsRetired > 0 || len(s.Passes) > 0 {
		fold(rowKey{trace: p.trace, straight: true}, s)
	}
	for _, h := range p.order {
		fold(rowKey{trace: p.trace, header: h}, p.rows[h])
	}
}

// Profile is one side's complete partition: the per-loop rows plus
// their re-summed totals. The conservation invariant makes the totals
// equal the measured window's Stats counters exactly.
type Profile struct {
	Rows []Row `json:"rows"`

	X86         uint64                   `json:"x86"`
	UOps        uint64                   `json:"uops"`
	UOpsRetired uint64                   `json:"uops_retired"`
	Covered     uint64                   `json:"covered"`
	FrameHits   uint64                   `json:"frame_hits"`
	OptRemoved  uint64                   `json:"opt_removed"`
	Cycles      uint64                   `json:"cycles"`
	Bins        [pipeline.NumBins]uint64 `json:"bins"`
	// Passes is the per-pass total across all rows.
	Passes map[string]PassCount `json:"passes,omitempty"`
}

// Snapshot assembles the profile accumulated so far: rows sorted by
// (trace, straight-first, header) and totals re-summed from them.
func (c *Collector) Snapshot() Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]rowKey, len(c.order))
	copy(keys, c.order)
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		if a.straight != b.straight {
			return a.straight
		}
		return a.header < b.header
	})
	p := Profile{Rows: make([]Row, 0, len(keys))}
	for _, k := range keys {
		r := *c.rows[k]
		if len(r.Passes) > 0 {
			cp := make(map[string]PassCount, len(r.Passes))
			for name, pc := range r.Passes {
				cp[name] = pc
			}
			r.Passes = cp
		}
		p.Rows = append(p.Rows, r)
		p.X86 += r.X86
		p.UOps += r.UOps
		p.UOpsRetired += r.UOpsRetired
		p.Covered += r.Covered
		p.FrameHits += r.FrameHits
		p.OptRemoved += r.OptRemoved
		p.Cycles += r.Cycles
		for i := range r.Bins {
			p.Bins[i] += r.Bins[i]
		}
		for name, pc := range r.Passes {
			if p.Passes == nil {
				p.Passes = make(map[string]PassCount)
			}
			cur := p.Passes[name]
			cur.add(pc)
			p.Passes[name] = cur
		}
	}
	return p
}
