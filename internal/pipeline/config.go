// Package pipeline implements the paper's timing model (Section 5.1.2 and
// Table 2): a deeply pipelined 8-wide fetch/issue/retire processor with a
// 512-entry scheduling window, a 15-cycle minimum branch resolution, an
// 18-bit gshare predictor, the Table 2 cache hierarchy, and the rePLay
// fetch engine (frame cache + sequencer + assertion recovery) or a trace
// cache, selected by Mode.
//
// The model is trace-driven with limited wrong-path support, exactly as
// in the paper: fetch follows the correct path, mispredictions cost
// resolution stalls, and wrong-path behaviour is modeled only on
// asserting frames (whose micro-ops are dispatched and then discarded).
package pipeline

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/opt"
)

// Mode selects the fetch-engine configuration of Figure 6.
type Mode int

// The four evaluated configurations.
const (
	// ModeICache is the reference 64kB instruction-cache machine (IC).
	ModeICache Mode = iota
	// ModeTraceCache adds a 16k micro-op trace cache over an 8kB ICache (TC).
	ModeTraceCache
	// ModeRePLay is basic rePLay: frame cache, no optimization (RP).
	ModeRePLay
	// ModeRePLayOpt is rePLay with the optimizing engine (RPO).
	ModeRePLayOpt
)

func (m Mode) String() string {
	switch m {
	case ModeICache:
		return "IC"
	case ModeTraceCache:
		return "TC"
	case ModeRePLay:
		return "RP"
	default:
		return "RPO"
	}
}

// Config is the processor configuration (Table 2 defaults).
type Config struct {
	Width       int // fetch/issue/retire width in micro-ops
	DecodeWidth int // x86 decoder throughput per cycle (ICache path)
	WindowSize  int // scheduling window in micro-ops

	FrontLatency     int // fetch-to-issue pipeline depth
	MinBranchResolve int // min cycles from branch fetch to execution

	SimpleALUs  int
	ComplexALUs int
	FPUs        int
	LSUs        int

	// Cache hierarchy.
	ICacheBytes int // per-mode: 64kB for IC, 8kB for TC/RP/RPO
	LineBytes   int
	L1DBytes    int
	L1DLat      int
	L2Bytes     int
	L2Lat       int
	MemLat      int

	// Predictors.
	GshareBits uint
	BTBEntries int
	RASDepth   int

	// StoreForwardLat is the store-buffer bypass latency for loads hitting
	// an in-flight store.
	StoreForwardLat int

	// SwitchWait is the idle turnaround when fetch switches between the
	// frame/trace cache and the ICache.
	SwitchWait int

	// rePLay engine.
	FrameCacheUOps  int          // 16k micro-ops
	FrameCfg        frame.Config // constructor parameters
	OptOptions      opt.Options  // optimizations (RPO)
	OptScope        opt.Scope
	OptCyclesPerUOp int // optimizer latency (10 cycles/micro-op)
	OptPipeDepth    int // concurrent frames in the optimizer (3)
	// OptReschedule enables the position-field rescheduling of Section 4
	// (critical-path-first issue order via the Cleanup Logic). Off by
	// default: the paper's frames stay in buffer order.
	OptReschedule bool

	// Trace cache (TC mode).
	TraceCacheUOps   int
	TraceMaxUOps     int
	TraceMaxBranches int
}

// DefaultConfig returns the Table 2 configuration for the given mode.
func DefaultConfig(mode Mode) Config {
	cfg := Config{
		Width:            8,
		DecodeWidth:      4,
		WindowSize:       512,
		FrontLatency:     10,
		MinBranchResolve: 15,
		SimpleALUs:       6,
		ComplexALUs:      2,
		FPUs:             3,
		LSUs:             4,
		ICacheBytes:      8 << 10,
		LineBytes:        64,
		L1DBytes:         32 << 10,
		L1DLat:           2,
		L2Bytes:          512 << 10,
		L2Lat:            10,
		MemLat:           50,
		GshareBits:       18,
		BTBEntries:       4096,
		RASDepth:         16,
		StoreForwardLat:  3,
		SwitchWait:       1,
		FrameCacheUOps:   16 << 10,
		FrameCfg:         frame.DefaultConfig(),
		OptOptions:       opt.AllOptions(),
		OptScope:         opt.ScopeFrame,
		OptCyclesPerUOp:  10,
		OptPipeDepth:     3,
		TraceCacheUOps:   16 << 10,
		TraceMaxUOps:     32,
		TraceMaxBranches: 3,
	}
	if mode == ModeICache {
		cfg.ICacheBytes = 64 << 10
	}
	return cfg
}

// Upper bounds Config.Validate enforces, far above the Table 2 values.
// Each sizes an allocation or a per-fetch scan directly, so an
// unbounded override could ask for gigabytes or stall every fetch.
const (
	MaxWidth           = 64
	MaxWindowSize      = 8192
	MaxFrameCacheUOps  = 1 << 20
	MaxOptCyclesPerUOp = 1 << 16
	MaxOptPipeDepth    = 64
	// MaxFrameUOps also bounds how far a run consumes past its
	// instruction budget (a frame of overshoot at the warmup boundary
	// and one at the end), which recorded streams cover with their
	// slack (sim.ReplaySlack).
	MaxFrameUOps = 1024
)

// ConfigError reports a Config field outside the range Validate allows.
type ConfigError struct {
	Field         string // Go field path, e.g. "FrameCfg.MaxUOps"
	Value, Lo, Hi int
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("%s %d outside [%d, %d]", e.Field, e.Value, e.Lo, e.Hi)
}

// Validate reports the first numeric field that would make the engine
// misbehave: a structure sized zero or absurdly large, or a scheduling
// window that cannot hold a fetch group. The error is a *ConfigError.
func (c *Config) Validate() error {
	for _, f := range []ConfigError{
		{"Width", c.Width, 1, MaxWidth},
		{"DecodeWidth", c.DecodeWidth, 1, MaxWidth},
		{"WindowSize", c.WindowSize, c.Width, MaxWindowSize},
		{"SimpleALUs", c.SimpleALUs, 1, MaxWidth},
		{"ComplexALUs", c.ComplexALUs, 1, MaxWidth},
		{"LSUs", c.LSUs, 1, MaxWidth},
		{"FrameCacheUOps", c.FrameCacheUOps, 1, MaxFrameCacheUOps},
		{"FrameCfg.MaxUOps", c.FrameCfg.MaxUOps, 1, MaxFrameUOps},
		{"OptCyclesPerUOp", c.OptCyclesPerUOp, 0, MaxOptCyclesPerUOp},
		{"OptPipeDepth", c.OptPipeDepth, 1, MaxOptPipeDepth},
	} {
		if f.Value < f.Lo || f.Value > f.Hi {
			bad := f
			return &bad
		}
	}
	return nil
}

// Bin classifies a fetch-stage cycle (Figures 7 and 8), in the paper's
// priority order.
type Bin int

// Fetch-cycle bins.
const (
	BinAssert  Bin = iota // fetched a firing frame; waiting for recovery
	BinMispred            // unresolved mispredicted branch / BTB miss
	BinMiss               // FCache/ICache miss
	BinStall              // downstream buffer (scheduling window) full
	BinWait               // cache switch turnaround
	BinFrame              // fetched from the frame/trace cache
	BinICache             // fetched from the ICache
	NumBins
)

var binNames = [NumBins]string{"assert", "mispred", "miss", "stall", "wait", "frame", "icache"}

func (b Bin) String() string { return binNames[b] }

// Stats accumulates the engine's observable behaviour.
type Stats struct {
	Cycles uint64
	Bins   [NumBins]uint64

	X86Retired  uint64
	UOpsRetired uint64 // micro-ops on the committed path

	// Optimization accounting over the committed stream.
	UOpsBaseline  uint64 // micro-ops the unoptimized decode would execute
	LoadsBaseline uint64
	LoadsRetired  uint64

	// Branch behaviour.
	CondBranches uint64
	Mispredicts  uint64
	BTBMisses    uint64

	// rePLay activity.
	FramesConstructed uint64
	FramesOptimized   uint64
	FramesDropped     uint64 // optimizer busy
	FrameFetches      uint64
	FrameCommits      uint64
	FrameAborts       uint64
	UnsafeAborts      uint64

	// CoveredBaseline counts baseline micro-ops whose instructions were
	// fetched from frames (frame coverage of the dynamic stream).
	CoveredBaseline uint64

	// Frame-construction end reasons (diagnostics).
	EndUnbiased  uint64
	EndUnstable  uint64
	EndMaxSize   uint64
	DroppedSmall uint64

	// Optimizer pass totals.
	Opt opt.Stats
}

// IPC returns retired x86 instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.X86Retired) / float64(s.Cycles)
}

// UOpReduction returns the fraction of dynamic micro-ops removed.
func (s *Stats) UOpReduction() float64 {
	if s.UOpsBaseline == 0 {
		return 0
	}
	return 1 - float64(s.UOpsRetired)/float64(s.UOpsBaseline)
}

// LoadReduction returns the fraction of dynamic loads removed.
func (s *Stats) LoadReduction() float64 {
	if s.LoadsBaseline == 0 {
		return 0
	}
	return 1 - float64(s.LoadsRetired)/float64(s.LoadsBaseline)
}

// FrameCoverage returns the fraction of retired micro-ops fetched from
// frames (measured against the unoptimized count each frame covers).
func (s *Stats) FrameCoverage() float64 {
	if s.UOpsBaseline == 0 {
		return 0
	}
	return float64(s.CoveredBaseline) / float64(s.UOpsBaseline)
}
