package pipeline

import (
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

// wireCacheHooks installs (or removes) the UOpCache observation hooks
// for whichever of telemetry and the probe is attached. A
// package-level generic function because methods cannot have type
// parameters.
func wireCacheHooks[T any](e *Engine, c *cache.UOpCache[T]) {
	if c == nil {
		return
	}
	if e.tel == nil && e.probe == nil {
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
		if e.probe != nil {
			e.probe.Evict()
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
// value. Detach by passing nil. It stays apart from the probe: span
// timing wants every pass invocation with its wall time, the probe and
// telemetry attribution only the changed ones.
func (e *Engine) SetPassRecorder(r opt.TimedPassRecorder) {
	e.passRec = r
}

// optRecorder picks the cheapest recorder covering the attached
// consumers: nil when nobody listens, the engine's changed-pass feed
// when telemetry attribution or a probe is attached, and the timed
// feed when span timing is on.
func (e *Engine) optRecorder() opt.PassRecorder {
	switch {
	case e.passRec != nil:
		return timedPassFeed{passFeed{e}}
	case e.probe != nil || e.tel.HasAttribution():
		return passFeed{e}
	}
	return nil
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
