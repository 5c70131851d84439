package pipeline

import (
	"time"

	"repro/internal/cache"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// SetTelemetry attaches a collector to the engine under the given run
// id (from Collector.NewRun). The collector deliberately lives on the
// Engine, not on Config: Config must remain a plain value struct — its
// %#v fingerprint is the memo key (see fingerprint.go) and a pointer
// field would poison it.
//
// Attaching wires the frame constructor, the frame/trace caches, and
// the dispatch path. Detach by passing nil.
func (e *Engine) SetTelemetry(tel *telemetry.Collector, run int) {
	e.tel = tel
	e.telRun = run
	if e.cons != nil {
		e.cons.Tel = tel
		e.cons.TelRun = run
		if tel != nil {
			e.cons.Now = func() uint64 { return e.cycle }
		} else {
			e.cons.Now = nil
		}
	}
	if tel != nil && e.telInsertAt == nil {
		e.telInsertAt = make(map[uint32]uint64)
	}
	wireCacheHooks(e, e.frames)
	wireCacheHooks(e, e.traces)
}

// ReuseProbe observes retirement-ordered slots and frame-lifecycle
// events for loop-structure reuse attribution (see internal/reuse).
// All methods are called on the engine goroutine; attribution is
// conservative — each retired instruction and each event is reported
// exactly once, so probe totals sum to the corresponding Stats
// counters over the same window.
type ReuseProbe interface {
	// ReuseSlot sees every retired x86 instruction in retirement order;
	// s is valid only for the call.
	// fromFrame marks slots covered by a committed frame or trace-cache
	// line; uopsExecuted is the post-optimization micro-op count retired
	// with the slot (0 on the frame path, whose optimized body arrives
	// in bulk via ReuseFrameRetired).
	ReuseSlot(s *Slot, fromFrame bool, uopsExecuted int)
	// ReuseFrameBuilt fires once per frame the constructor deposits
	// (sums to Stats.FramesConstructed).
	ReuseFrameBuilt()
	// ReuseFrameHit fires once per frame-cache fetch (sums to
	// Stats.FrameFetches).
	ReuseFrameHit()
	// ReuseFrameRetired reports a committed frame's executed micro-ops
	// (with the decoded paths' uopsExecuted, sums to Stats.UOpsRetired).
	ReuseFrameRetired(uops int)
	// ReuseOptRemoved reports micro-ops an optimizer run removed (sums
	// to Stats.Opt.Removed()).
	ReuseOptRemoved(removed int)
	// ReuseEvict fires once per frame/trace-cache eviction.
	ReuseEvict()
}

// ReusePassProbe is an optional ReuseProbe extension: a probe that
// also wants the per-pass split of the removals ReuseOptRemoved
// reports. When the probe attached via SetReuse implements it, every
// changed optimizer pass invocation is forwarded from the same call
// site (and hence the same loop-stack context) ReuseOptRemoved fires
// in, so over the attached window the per-pass killed sums equal
// Stats.Opt.Removed() exactly — the same invariant opt.OptimizeTraced
// documents for PassRecorder.
type ReusePassProbe interface {
	ReuseProbe
	// ReusePass reports one optimizer pass invocation that changed
	// something: uops it invalidated and uops it rewrote in place.
	ReusePass(pass string, killed, rewritten int)
}

// SetReuse attaches a reuse-attribution probe. Like SetTelemetry it
// lives on the Engine, not Config, so the memo-key fingerprint stays a
// pure value; attach after warmup so the probe covers exactly the
// measured window ResetStats draws. Detach by passing nil.
//
// The ReusePassProbe type assertion is cached here so the optimizer
// call site pays a field check, not an interface assertion, per frame.
func (e *Engine) SetReuse(p ReuseProbe) {
	e.reuse = p
	e.reusePass, _ = p.(ReusePassProbe)
	wireCacheHooks(e, e.frames)
	wireCacheHooks(e, e.traces)
}

// CycleProbe observes every fetch-stage cycle the engine charges, with
// the guest PC held responsible and the bin the cycle landed in. The
// engine's only two cycle-charging paths (tick and stallUntil) call it,
// so over any attached window the probe's per-PC × per-bin totals equal
// Stats.Cycles and Stats.Bins exactly — conservation by construction,
// not by bookkeeping at every charge site. Called on the engine
// goroutine.
type CycleProbe interface {
	// CycleCharge attributes n fetch cycles at guest PC pc to bin.
	CycleCharge(pc uint32, bin Bin, n uint64)
}

// SetCycleProf attaches a guest-cycle profiler probe. Like SetTelemetry
// and SetReuse it lives on the Engine, not Config, so the memo-key
// fingerprint stays a pure value; attach after warmup so the profile
// covers exactly the measured window ResetStats draws. Detach by
// passing nil — when detached, the charge paths pay one nil check.
func (e *Engine) SetCycleProf(p CycleProbe) {
	e.cprof = p
}

// wireCacheHooks installs (or removes) the UOpCache observation hooks
// for whichever of telemetry and the reuse probe is attached. A
// package-level generic function because methods cannot have type
// parameters.
func wireCacheHooks[T any](e *Engine, c *cache.UOpCache[T]) {
	if c == nil {
		return
	}
	if e.tel == nil && e.reuse == nil {
		c.OnInsert, c.OnEvict, c.OnHit = nil, nil, nil
		return
	}
	c.OnInsert = func(pc uint32, size int) {
		if e.tel == nil || !e.tel.Enabled() {
			return
		}
		e.telInsertAt[pc] = e.cycle
		e.tel.CacheInsert(e.telRun, e.cycle, pc, size)
	}
	c.OnEvict = func(pc uint32, size int) {
		if e.reuse != nil {
			e.reuse.ReuseEvict()
		}
		if e.tel == nil || !e.tel.Enabled() {
			return
		}
		var residency uint64
		if t0, ok := e.telInsertAt[pc]; ok {
			residency = e.cycle - t0
			delete(e.telInsertAt, pc)
		}
		e.tel.CacheEvict(e.telRun, e.cycle, pc, size, residency)
	}
	c.OnHit = func(pc uint32) {
		if e.tel != nil {
			e.tel.CacheHit(e.telRun, e.cycle, pc)
		}
	}
}

// SetPassRecorder attaches a wall-clock pass-timing recorder to the
// optimizer path (see opt.TimedPassRecorder). Like SetTelemetry it
// lives on the Engine, not Config, so the memo-key fingerprint stays a
// value. Detach by passing nil. Independent of telemetry attribution:
// the two recorders are fanned out by a dual recorder at the optimize
// call site.
func (e *Engine) SetPassRecorder(r opt.TimedPassRecorder) {
	e.passRec = r
}

// dualRecorder fans one OptimizeTraced recorder out to two consumers:
// changed-only attribution (telemetry) and every-invocation wall-clock
// timing (span tracing). Either side may be nil.
type dualRecorder struct {
	attr  opt.PassRecorder
	timed opt.TimedPassRecorder
}

func (d dualRecorder) RecordPass(frameID uint64, pass string, killed, rewritten int) {
	if d.attr != nil {
		d.attr.RecordPass(frameID, pass, killed, rewritten)
	}
}

func (d dualRecorder) RecordPassTimed(frameID uint64, pass string, killed, rewritten int, dur time.Duration) {
	if d.timed != nil {
		d.timed.RecordPassTimed(frameID, pass, killed, rewritten, dur)
	}
}

// passProbeRecorder forwards changed-only pass invocations to a reuse
// pass probe. It deliberately does not implement TimedPassRecorder, so
// a probe-only recorder never makes the optimizer pay the two time.Now
// calls per pass that the timed extension costs.
type passProbeRecorder struct{ probe ReusePassProbe }

func (r passProbeRecorder) RecordPass(frameID uint64, pass string, killed, rewritten int) {
	r.probe.ReusePass(pass, killed, rewritten)
}

// fanRecorder duplicates changed-only pass invocations to two untimed
// consumers (telemetry attribution and a reuse pass probe).
type fanRecorder struct{ a, b opt.PassRecorder }

func (f fanRecorder) RecordPass(frameID uint64, pass string, killed, rewritten int) {
	f.a.RecordPass(frameID, pass, killed, rewritten)
	f.b.RecordPass(frameID, pass, killed, rewritten)
}

// optRecorder picks the cheapest recorder covering the attached
// consumers: nil when nobody listens, the telemetry collector alone
// when only attribution is on (no time.Now cost), a pass-probe
// forwarder when a ReusePassProbe is attached, and a dual recorder
// when pass timing is attached on top of either.
func (e *Engine) optRecorder() opt.PassRecorder {
	var attr opt.PassRecorder
	switch {
	case e.tel.HasAttribution() && e.reusePass != nil:
		attr = fanRecorder{a: e.tel, b: passProbeRecorder{probe: e.reusePass}}
	case e.tel.HasAttribution():
		attr = e.tel
	case e.reusePass != nil:
		attr = passProbeRecorder{probe: e.reusePass}
	}
	if e.passRec != nil {
		return dualRecorder{attr: attr, timed: e.passRec}
	}
	return attr
}

// CloseTelemetry flushes end-of-run state: frames still resident in
// the cache contribute their residency-so-far to the histogram (no
// eviction event is fabricated — the frames are still cached). Call
// once per run, after the last Run/RunContext.
func (e *Engine) CloseTelemetry() {
	if e.tel == nil {
		return
	}
	for _, t0 := range e.telInsertAt {
		e.tel.CacheResident(e.cycle - t0)
	}
	e.telInsertAt = make(map[uint32]uint64)
}
