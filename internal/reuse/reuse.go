// Package reuse makes trace reuse a first-class observable: it detects
// loop structure in the retired instruction stream (back edges on the
// per-PC control-flow graph the interpreter already walks), estimates
// nesting depth and trip counts, and attributes every retired micro-op
// and every frame-lifecycle event — build, hit, optimization removal,
// cache eviction — to a {loop-depth bucket, instruction-class} cell.
//
// The attribution is conservative by construction: each retired
// instruction and each lifecycle event lands in exactly one depth
// bucket, so the bucket sums equal the pipeline's own counters
// (X86Retired, UOpsBaseline, UOpsRetired, FramesConstructed,
// FrameFetches, Opt.Removed). The conservation test in internal/sim
// pins this for every profile, mirroring the per-pass killed==Removed
// invariant from the optimization-attribution telemetry.
//
// On top of the redundancy signal, Select picks a minimal
// representative workload subset (greedy facility-location over the
// reuse signatures, maximizing covered reuse mass per unit simulated
// cost), which the reuse experiment reports beside the decomposition.
package reuse

import (
	"repro/internal/pipeline"
	"repro/internal/uop"
	"repro/internal/x86"
)

// Class buckets micro-ops by what kind of work they do; the class mix
// of a loop body is what distinguishes, say, a pointer-chasing loop
// from an arithmetic one with the same trip count.
type Class uint8

const (
	ClassALU Class = iota
	ClassLoad
	ClassStore
	ClassControl
	ClassOther

	// NumClasses is the number of instruction classes.
	NumClasses = int(ClassOther) + 1
)

var classNames = [NumClasses]string{"alu", "load", "store", "control", "other"}

func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return "other"
}

// ClassOf maps a micro-op opcode to its class.
func ClassOf(op uop.Op) Class {
	switch {
	case op == uop.LOAD:
		return ClassLoad
	case op == uop.STORE:
		return ClassStore
	case op.IsControl() || op.IsAssert():
		return ClassControl
	case op.IsALU():
		return ClassALU
	}
	return ClassOther
}

// NumBuckets is the number of loop-depth buckets: straight-line code,
// loop depth 1, depth 2, and depth 3 or deeper.
const NumBuckets = 4

var bucketLabels = [NumBuckets]string{"straight", "loop-d1", "loop-d2", "loop-d3+"}

// BucketOf maps a nesting depth (0 = outside any loop) to its bucket.
func BucketOf(depth int) int {
	if depth >= NumBuckets-1 {
		return NumBuckets - 1
	}
	return depth
}

// BucketLabel names a depth bucket for tables and metrics.
func BucketLabel(b int) string {
	if b >= 0 && b < NumBuckets {
		return bucketLabels[b]
	}
	return "loop-d3+"
}

// BucketStat is the attribution cell for one loop-depth bucket: the
// retired work that happened at that depth and the frame-lifecycle
// events that fired while execution sat at that depth.
type BucketStat struct {
	// X86 is the retired x86 instruction count.
	X86 uint64 `json:"x86"`
	// UOps is the decoded (baseline) micro-op count.
	UOps uint64 `json:"uops"`
	// UOpsRetired is the post-optimization micro-op count actually
	// executed (frame-path slots retire their frame's optimized body).
	UOpsRetired uint64 `json:"uops_retired"`
	// Covered is the baseline micro-op count retired through committed
	// frames (the numerator of frame coverage, split by depth).
	Covered uint64 `json:"covered"`
	// Classes splits UOps by instruction class, indexed by Class.
	Classes [NumClasses]uint64 `json:"classes"`
	// FrameBuilds counts frames offered by the constructor.
	FrameBuilds uint64 `json:"frame_builds"`
	// FrameHits counts frame-cache fetches.
	FrameHits uint64 `json:"frame_hits"`
	// OptRemoved counts micro-ops the optimizer removed.
	OptRemoved uint64 `json:"opt_removed"`
	// Evictions counts frame/trace-cache evictions.
	Evictions uint64 `json:"evictions"`
}

// Add accumulates another cell into b (used when folding per-engine
// detectors into a collector, and per-job reports into server metrics).
func (b *BucketStat) Add(o *BucketStat) {
	b.X86 += o.X86
	b.UOps += o.UOps
	b.UOpsRetired += o.UOpsRetired
	b.Covered += o.Covered
	for i := range b.Classes {
		b.Classes[i] += o.Classes[i]
	}
	b.FrameBuilds += o.FrameBuilds
	b.FrameHits += o.FrameHits
	b.OptRemoved += o.OptRemoved
	b.Evictions += o.Evictions
}

// Loop is one detected loop, identified by its header PC (the target
// of its back edges). Two back edges to the same header are the same
// loop; the body is approximated by the PC interval [Header, Tail].
type Loop struct {
	// Trace is the hot-spot trace the loop was observed in (traces are
	// independent address spaces, so loops never merge across them).
	Trace  int    `json:"trace"`
	Header uint32 `json:"header"`
	Tail   uint32 `json:"tail"`
	// Nest is the deepest nesting level the loop was observed at
	// (1 = outermost).
	Nest int `json:"nest"`
	// Entries counts activations; BackEdges counts iterations closed by
	// a back edge, so a full activation of N body executions contributes
	// N-1 back edges.
	Entries   uint64 `json:"entries"`
	BackEdges uint64 `json:"back_edges"`
	// UOps is the baseline micro-op mass retired while this loop was the
	// innermost active one.
	UOps uint64 `json:"uops"`
}

// TripCount estimates body executions per activation.
func (l *Loop) TripCount() float64 {
	if l.Entries == 0 {
		return 0
	}
	return float64(l.BackEdges+l.Entries) / float64(l.Entries)
}

// activeLoop is one live activation on the detector's loop stack.
type activeLoop struct {
	header, tail uint32
	callDepth    int
	loop         *Loop
}

// Detector is the streaming loop detector and attribution engine for
// one engine run. It is a pipeline.Probe fed every retired
// instruction in retirement order, and the one loop detector an engine
// carries: the cycle profiler and the diff probe read their loop
// context from it (Active, Loops) and are attached after it. It is
// single-goroutine, like the engine that drives it.
//
// A loop is recognized at its first back edge — a taken control
// transfer to a lower or equal PC — so an activation's first body
// execution is attributed to the surrounding depth, the standard cost
// of online detection. An activation stays live while the PC remains
// inside [header, tail] at the call depth the loop was entered at;
// calls made from the body keep it live (the callee's instructions are
// dynamically inside the loop), and returning below that call depth
// ends it.
type Detector struct {
	pipeline.NopProbe
	buckets   [NumBuckets]BucketStat
	loops     map[uint32]*Loop
	order     []uint32 // header insertion order, for deterministic reports
	stack     []activeLoop
	callDepth int
}

// NewDetector returns an empty detector.
func NewDetector() *Detector {
	return &Detector{loops: make(map[uint32]*Loop)}
}

// Depth is the current loop-nesting depth (0 = straight-line).
func (d *Detector) Depth() int { return len(d.stack) }

// Active returns the innermost active loop's identity — its header PC —
// or ok=false when execution is in straight-line code. Consumers that
// need an exact partition of observed events over loops (each event in
// exactly one row, unlike the inclusive interval rollups a nested join
// produces) attribute to the active loop at event time.
func (d *Detector) Active() (header uint32, ok bool) {
	if n := len(d.stack); n > 0 {
		return d.stack[n-1].header, true
	}
	return 0, false
}

// Retire feeds one retired instruction. fromFrame marks slots retired
// through a committed frame or trace-cache line; uopsExecuted is the
// post-optimization micro-op count retired with the slot (frame-path
// slots pass 0 — their optimized body arrives in bulk via
// FrameRetired).
func (d *Detector) Retire(s *pipeline.Slot, fromFrame bool, uopsExecuted int) {
	pc := s.PC
	// Leave loops whose body no longer contains the PC at the call depth
	// they were entered at.
	for n := len(d.stack); n > 0; n = len(d.stack) {
		top := &d.stack[n-1]
		if d.callDepth > top.callDepth {
			break // inside a function called from the loop body
		}
		if d.callDepth == top.callDepth && pc >= top.header && pc <= top.tail {
			break
		}
		d.stack = d.stack[:n-1]
	}

	b := &d.buckets[BucketOf(len(d.stack))]
	b.X86++
	n := uint64(len(s.UOps))
	b.UOps += n
	b.UOpsRetired += uint64(uopsExecuted)
	if fromFrame {
		b.Covered += n
	}
	for _, u := range s.UOps {
		b.Classes[ClassOf(u.Op)]++
	}
	if ln := len(d.stack); ln > 0 {
		d.stack[ln-1].loop.UOps += n
	}

	// Control effects happen on the way out: the call depth changes
	// after the instruction retires, and a taken backward branch closes
	// an iteration at the depth the instruction executed at.
	switch s.Inst.Op {
	case x86.OpCALL:
		d.callDepth++
	case x86.OpRET:
		if d.callDepth > 0 {
			d.callDepth--
		}
	default:
		if s.NextPC <= pc && s.Taken() {
			d.backEdge(s.NextPC, pc)
		}
	}
}

// backEdge processes a taken backward control transfer tail -> header.
func (d *Detector) backEdge(header, tail uint32) {
	// Re-iteration of a live activation: find it at the current call
	// depth, unwinding inner activations this iteration did not close.
	for i := len(d.stack) - 1; i >= 0 && d.stack[i].callDepth == d.callDepth; i-- {
		a := &d.stack[i]
		if a.header != header {
			continue
		}
		d.stack = d.stack[:i+1]
		if tail > a.tail {
			a.tail = tail
		}
		a.loop.BackEdges++
		if tail > a.loop.Tail {
			a.loop.Tail = tail
		}
		return
	}
	// First back edge of a new activation.
	l := d.loops[header]
	if l == nil {
		l = &Loop{Header: header, Tail: tail}
		d.loops[header] = l
		d.order = append(d.order, header)
	}
	l.Entries++
	l.BackEdges++
	if tail > l.Tail {
		l.Tail = tail
	}
	d.stack = append(d.stack, activeLoop{header: header, tail: tail, callDepth: d.callDepth, loop: l})
	if nest := len(d.stack); nest > l.Nest {
		l.Nest = nest
	}
}

// FrameBuilt attributes a constructor frame deposit.
func (d *Detector) FrameBuilt() { d.buckets[BucketOf(len(d.stack))].FrameBuilds++ }

// FrameHit attributes a frame-cache fetch.
func (d *Detector) FrameHit() { d.buckets[BucketOf(len(d.stack))].FrameHits++ }

// FrameRetired attributes a committed frame's optimized body.
func (d *Detector) FrameRetired(uops int) {
	d.buckets[BucketOf(len(d.stack))].UOpsRetired += uint64(uops)
}

// OptRemoved attributes micro-ops removed by an optimizer run.
func (d *Detector) OptRemoved(removed int) {
	d.buckets[BucketOf(len(d.stack))].OptRemoved += uint64(removed)
}

// Evict attributes a frame/trace-cache eviction.
func (d *Detector) Evict() { d.buckets[BucketOf(len(d.stack))].Evictions++ }

// Loops returns the detected loops in first-observed order.
func (d *Detector) Loops() []Loop {
	out := make([]Loop, 0, len(d.order))
	for _, h := range d.order {
		out = append(out, *d.loops[h])
	}
	return out
}

// Buckets returns the attribution cells, indexed by depth bucket.
func (d *Detector) Buckets() [NumBuckets]BucketStat { return d.buckets }
