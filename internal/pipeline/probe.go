package pipeline

import "time"

// Probe observes one engine run for the guest analyses (loop-structure
// reuse, the guest-cycle profiler, the ablation diff). All methods are
// called on the engine goroutine, and each event is reported exactly
// once, at the call site of the Stats counter it mirrors, so probe
// totals sum to those counters over the attached window. Embed NopProbe
// to implement only the events an analysis needs.
type Probe interface {
	// Retire sees every retired x86 instruction in retirement order; s
	// is valid only for the call. fromFrame marks slots covered by a
	// committed frame or trace-cache line; uopsExecuted is the
	// post-optimization micro-op count retired with the slot (0 on the
	// frame path, whose optimized body arrives in bulk via FrameRetired).
	Retire(s *Slot, fromFrame bool, uopsExecuted int)
	// FrameBuilt fires once per frame the constructor deposits (sums to
	// Stats.FramesConstructed).
	FrameBuilt()
	// FrameHit fires once per frame-cache fetch (sums to
	// Stats.FrameFetches).
	FrameHit()
	// FrameRetired reports a committed frame's executed micro-ops (with
	// Retire's uopsExecuted, sums to Stats.UOpsRetired).
	FrameRetired(uops int)
	// OptRemoved reports the micro-ops one optimizer run removed (sums
	// to Stats.Opt.Removed()).
	OptRemoved(removed int)
	// Pass reports one optimizer pass invocation that changed
	// something: uops it invalidated and uops it rewrote in place. It
	// fires from the optimizer run OptRemoved reports, so the killed
	// sums equal Stats.Opt.Removed() too.
	Pass(pass string, killed, rewritten int)
	// Evict fires once per frame/trace-cache eviction.
	Evict()
	// Charge attributes n fetch cycles at guest PC pc to bin. The
	// engine's only two cycle-charging paths (tick and stallUntil) call
	// it, so the per-PC × per-bin totals equal Stats.Cycles and
	// Stats.Bins exactly. The PC is the fetch-group leader, or the
	// branch or frame head a recovery stall belongs to.
	Charge(pc uint32, bin Bin, n uint64)
}

// NopProbe implements every Probe event as a no-op.
type NopProbe struct{}

func (NopProbe) Retire(*Slot, bool, int)    {}
func (NopProbe) FrameBuilt()                {}
func (NopProbe) FrameHit()                  {}
func (NopProbe) FrameRetired(int)           {}
func (NopProbe) OptRemoved(int)             {}
func (NopProbe) Pass(string, int, int)      {}
func (NopProbe) Evict()                     {}
func (NopProbe) Charge(uint32, Bin, uint64) {}

// Attach attaches the guest-analysis probes, replacing any attached
// before; Attach() detaches. Like SetTelemetry it lives on the Engine,
// not Config, so the memo-key fingerprint stays a pure value. Call it at
// the warmup boundary, so the probes cover exactly the measured window
// ResetStats draws. Every event reaches the probes in argument order: a
// probe that reads another's state during an event (the analyses read
// loop context from a shared reuse.Detector) must come after it.
//
// When nothing is attached, each probe call site costs one nil check.
func (e *Engine) Attach(probes ...Probe) {
	switch len(probes) {
	case 0:
		e.probe = nil
	case 1:
		e.probe = probes[0]
	default:
		e.probe = probeFan(probes)
	}
	wireCacheHooks(e, e.frames)
	wireCacheHooks(e, e.traces)
}

// probeFan hands every event to several probes, in order.
type probeFan []Probe

func (f probeFan) Retire(s *Slot, fromFrame bool, uopsExecuted int) {
	for _, p := range f {
		p.Retire(s, fromFrame, uopsExecuted)
	}
}
func (f probeFan) FrameBuilt() {
	for _, p := range f {
		p.FrameBuilt()
	}
}
func (f probeFan) FrameHit() {
	for _, p := range f {
		p.FrameHit()
	}
}
func (f probeFan) FrameRetired(uops int) {
	for _, p := range f {
		p.FrameRetired(uops)
	}
}
func (f probeFan) OptRemoved(removed int) {
	for _, p := range f {
		p.OptRemoved(removed)
	}
}
func (f probeFan) Pass(pass string, killed, rewritten int) {
	for _, p := range f {
		p.Pass(pass, killed, rewritten)
	}
}
func (f probeFan) Evict() {
	for _, p := range f {
		p.Evict()
	}
}
func (f probeFan) Charge(pc uint32, bin Bin, n uint64) {
	for _, p := range f {
		p.Charge(pc, bin, n)
	}
}

// passFeed is the optimizer's pass recorder: the engine forwarding each
// changed pass invocation to telemetry attribution and the probe. It
// does not implement opt.TimedPassRecorder, so without span timing the
// optimizer never pays the two time.Now calls per pass.
type passFeed struct{ e *Engine }

func (f passFeed) RecordPass(frameID uint64, pass string, killed, rewritten int) {
	f.e.tel.RecordPass(frameID, pass, killed, rewritten)
	if f.e.probe != nil {
		f.e.probe.Pass(pass, killed, rewritten)
	}
}

// timedPassFeed adds every invocation's wall time for span timing.
type timedPassFeed struct{ passFeed }

func (f timedPassFeed) RecordPassTimed(frameID uint64, pass string, killed, rewritten int, d time.Duration) {
	f.e.passRec.RecordPassTimed(frameID, pass, killed, rewritten, d)
}
