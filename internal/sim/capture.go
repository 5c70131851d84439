package sim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

// The capture layer: the functional IA-32 interpreter runs once per
// (profile, trace index, budget), recording the retired slot stream; all
// four pipeline modes — and every later experiment over the same
// workload — replay the recording instead of re-interpreting. The
// decoded/translated stream is deterministic per (profile, trace), so
// replayed runs are bit-identical to interpreted ones.

// captureSlack is how many slots beyond the instruction budget a capture
// records. The engine consumes past the budget by less than two frames
// of retirement overshoot (one at the warmup boundary, one at the end,
// each under pipeline.MaxFrameUOps x86 instructions), so a replayed
// engine never consumes up to a premature end of stream; the conversion
// below fails to compile if the slack stops covering that. The window
// reads further ahead, but a replay reports exhaustion only once
// consumption reaches it.
const captureSlack = 2048

const _ = uint(captureSlack - 2*pipeline.MaxFrameUOps)

// slotSource is a correct-path stream that can report a deferred
// interpreter error once the run is over.
type slotSource interface {
	pipeline.Stream
	Err() error
}

// Err surfaces an interpreter failure after a live run, once the engine
// has consumed up to it (a Fill returned 0); a failure the read-ahead
// met past the point the run stopped is not reported.
func (s *cpuStream) Err() error {
	if !s.ended {
		return nil
	}
	return s.err
}

// recordedStream is one captured retired-slot stream, stored columnar:
// per retired instruction only the PC, the successor PC and the memory
// addresses vary, so those are kept in flat arrays (~12 bytes per slot)
// while the decode and translation live in the program's static table,
// taken over from the interpreter. A full-budget capture is a few MB
// instead of the tens of MB a []pipeline.Slot costs, which is what lets
// the capture cache cover a whole sweep.
type recordedStream struct {
	pcs      []uint32
	nextPCs  []uint32
	memOff   []uint32 // prefix offsets into memAddrs; len = len(pcs)+1
	memAddrs []uint32
	static   *translate.StaticTable // read-only once the capture is done
	err      error                  // interpreter error hit at the end of the slots, if any
	atEnd    bool                   // the program genuinely ended (vs the capture bound)
}

// errCaptureExhausted reports a replay that consumed the whole recording
// without the underlying program having ended — a would-be silent
// divergence from a live run, turned into a loud failure.
var errCaptureExhausted = errors.New("sim: captured slot stream exhausted before the run finished (captureSlack too small)")

// replayStream serves a recordedStream as a pipeline.Stream. Each engine
// gets its own cursor; the slots themselves are shared read-only.
type replayStream struct {
	rec       *recordedStream
	pos       int
	exhausted bool
}

// Fill materializes the next recorded slots straight from the columns.
// MemAddrs alias the shared backing array (capacity-clipped); the
// engine only reads them.
func (r *replayStream) Fill(dst []pipeline.Slot) int {
	rec := r.rec
	n := min(len(dst), len(rec.pcs)-r.pos)
	if n <= 0 {
		r.exhausted = true
		return 0
	}
	for i := range dst[:n] {
		j := r.pos + i
		var addrs []uint32
		if lo, hi := rec.memOff[j], rec.memOff[j+1]; hi > lo {
			addrs = rec.memAddrs[lo:hi:hi]
		}
		dst[i] = pipeline.Slot{StaticInst: rec.static.Cached(rec.pcs[j]), NextPC: rec.nextPCs[j], MemAddrs: addrs}
	}
	r.pos += n
	return n
}

func (r *replayStream) Err() error {
	if !r.exhausted {
		return nil
	}
	if r.rec.err != nil {
		return r.rec.err
	}
	if !r.rec.atEnd {
		return errCaptureExhausted
	}
	return nil
}

// captureRecorded drains the interpreter into a recording of at most max
// slots. An interpreter error is stored positionally: a replay only
// surfaces it if the engine actually consumes that far, exactly like a
// live run. The static table is taken over from the interpreter stream,
// so every replayed slot shares its entries.
func captureRecorded(prog *workload.Program, max int) *recordedStream {
	src := newCPUStream(prog)
	rec := &recordedStream{
		pcs:     make([]uint32, 0, max),
		nextPCs: make([]uint32, 0, max),
		memOff:  make([]uint32, 1, max+1),
		static:  src.static,
	}
	var s pipeline.Slot
	for len(rec.pcs) < max {
		if !src.step(&s) {
			rec.atEnd = true
			rec.err = src.err
			return rec
		}
		rec.pcs = append(rec.pcs, s.PC)
		rec.nextPCs = append(rec.nextPCs, s.NextPC)
		rec.memAddrs = append(rec.memAddrs, s.MemAddrs...)
		rec.memOff = append(rec.memOff, uint32(len(rec.memAddrs)))
	}
	return rec
}

// profileFingerprint canonically identifies a workload profile. Profile
// is a plain value struct, so %#v covers every generator knob — two
// custom workloads sharing a name but differing in shape never collide.
func profileFingerprint(p *workload.Profile) string {
	return fmt.Sprintf("%#v", *p)
}

// Default capture-cache budgets. A full-budget columnar recording is a
// few MB, so the defaults comfortably cover every (workload, trace) of
// the paper's sweep — later figures replay instead of re-interpreting —
// while still capping long-lived custom-workload hosts.
const (
	DefaultCaptureEntries = 32
	DefaultCaptureBytes   = 256 << 20
)

type captureKey struct {
	profile string
	trace   int
	insts   int
}

type captureEntry struct {
	once   sync.Once
	rec    *recordedStream
	genErr error
	bytes  int64 // approximate residency, set once the recording exists
}

// sizeBytes estimates a recording's heap residency: the columnar slot
// arrays exactly, plus the static table it holds (charged once, however
// many slots point into it).
func (rec *recordedStream) sizeBytes() int64 {
	b := int64(4 * (len(rec.pcs) + len(rec.nextPCs) + len(rec.memOff) + len(rec.memAddrs)))
	return b + rec.static.SizeBytes()
}

// captureCache shares recordings across the concurrent (workload, mode)
// jobs of a sweep. sync.Once per entry collapses the four modes' racing
// requests into one interpretation; LRU eviction bounds residency by
// entry count and by approximate bytes (an evicted entry still in use
// stays alive via its users' references). The most recent entry is
// never evicted, so one oversized capture degrades to cache-of-one
// rather than thrashing.
type captureCache struct {
	mu         sync.Mutex
	entries    map[captureKey]*captureEntry
	order      []captureKey // front = least recently used
	bytes      int64        // sum of completed entries' sizes
	maxEntries int
	maxBytes   int64
}

var captures = &captureCache{
	entries:    map[captureKey]*captureEntry{},
	maxEntries: DefaultCaptureEntries,
	maxBytes:   DefaultCaptureBytes,
}

func (c *captureCache) get(p workload.Profile, traceIdx, budget int) (*recordedStream, error) {
	key := captureKey{profile: profileFingerprint(&p), trace: traceIdx, insts: budget}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &captureEntry{}
		c.entries[key] = e
	}
	c.touch(key)
	c.mu.Unlock()

	built := false
	e.once.Do(func() {
		built = true
		metrics.captureBuilds.Add(1)
		prog, err := workload.Generate(p, traceIdx)
		if err != nil {
			e.genErr = err
			return
		}
		e.rec = captureRecorded(prog, budget+captureSlack)
	})
	if built {
		if e.rec != nil {
			c.mu.Lock()
			// The entry may already have been evicted by a racing insert;
			// only charge residency it still holds.
			if cur, live := c.entries[key]; live && cur == e {
				e.bytes = e.rec.sizeBytes()
				c.bytes += e.bytes
				c.evict()
			}
			c.mu.Unlock()
		}
	} else {
		metrics.captureHits.Add(1)
	}
	return e.rec, e.genErr
}

// touch moves key to the most-recent end and evicts past the budgets.
// Caller holds c.mu.
func (c *captureCache) touch(key captureKey) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, key)
	c.evict()
}

// evict drops least-recently-used entries while either budget is
// exceeded, always retaining the most recent entry. Caller holds c.mu.
func (c *captureCache) evict() {
	for len(c.order) > 1 && (len(c.order) > c.maxEntries || c.bytes > c.maxBytes) {
		old := c.order[0]
		c.order = c.order[1:]
		if e, ok := c.entries[old]; ok {
			c.bytes -= e.bytes
			delete(c.entries, old)
		}
	}
}

func (c *captureCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[captureKey]*captureEntry{}
	c.order = nil
	c.bytes = 0
}

// SetCaptureLimits sets the capture cache's entry and byte budgets
// (values < 1 keep the current setting) and evicts down to them.
func SetCaptureLimits(entries int, bytes int64) {
	captures.mu.Lock()
	defer captures.mu.Unlock()
	if entries >= 1 {
		captures.maxEntries = entries
	}
	if bytes >= 1 {
		captures.maxBytes = bytes
	}
	captures.evict()
}

// CaptureOccupancy reports the capture cache's current and maximum
// entry count and approximate byte residency.
func CaptureOccupancy() (entries int, bytes int64, entryLimit int, byteLimit int64) {
	captures.mu.Lock()
	defer captures.mu.Unlock()
	return len(captures.entries), captures.bytes, captures.maxEntries, captures.maxBytes
}

// CaptureXTrace interprets one hot-spot trace of the profile and returns
// it as an external trace with the code image embedded: insts is the
// measured budget, and ReplaySlack more instructions ride along so a
// replay never starves. This is the repository's one serialized
// slot-stream format (tracegen -export writes it).
func CaptureXTrace(p workload.Profile, traceIdx, insts int) (*xtrace.Trace, error) {
	prog, err := workload.Generate(p, traceIdx)
	if err != nil {
		return nil, err
	}
	rec := captureRecorded(prog, insts+ReplaySlack)
	if rec.err != nil {
		return nil, rec.err
	}
	return xtrace.FromStream(prog.Name, prog.Base, prog.Code, &replayStream{rec: rec}, insts), nil
}

// sliceStream serves an already materialized slot slice (an external
// trace's) as a correct-path stream.
type sliceStream struct {
	slots []pipeline.Slot
	pos   int
}

func (s *sliceStream) Fill(dst []pipeline.Slot) int {
	n := copy(dst, s.slots[s.pos:])
	s.pos += n
	return n
}

// Err is always nil: a slice has no interpreter behind it to fail.
func (s *sliceStream) Err() error { return nil }
