package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/workload"
	"repro/internal/x86"
	"repro/internal/xtrace"
)

// Seeds. The default seed reproduces the calibrated profile set of
// workload.Profiles; the held-out seed is kept out of tuning so a
// performance claim can be re-checked on inputs nobody tuned against.
// Both have recorded Stats digests in digests.json.
const (
	defaultSeed  = 1
	heldOutSeed  = 7
	seedStride   = 1_000_003 // generator-seed shift per workload-seed step
	uploadStride = 7_919     // extra shift per replayd-mix upload
)

// profilesFor returns the 14 application profiles with their generator
// seeds shifted by the workload seed. Only the seed moves: budgets,
// trace counts and knob calibration stay, so every seed runs the same
// amount of simulated work over different generated programs.
func profilesFor(seed int64) []workload.Profile {
	ps := append([]workload.Profile(nil), workload.Profiles...)
	for i := range ps {
		ps[i].Seed += (seed - defaultSeed) * seedStride
	}
	return ps
}

// Paper columns copied from EXPERIMENTS.md, in workload.Profiles order:
// Figure 6's RPO-over-RP IPC gain and Table 3's micro-ops removed, both
// in percent.
var (
	paperFig6Gain = map[string]float64{
		"bzip2": 28, "crafty": 10, "eon": 31, "gzip": 6, "parser": 8, "twolf": 13, "vortex": 33,
		"access": 21, "dream": 26, "excel": 13, "lotus": 11, "photo": 30, "power": 6, "sound": 6,
	}
	paperUOpsRemoved = map[string]float64{
		"bzip2": 23, "crafty": 16, "eon": 25, "gzip": 13, "parser": 21, "twolf": 14, "vortex": 24,
		"access": 22, "dream": 28, "excel": 21, "lotus": 22, "photo": 15, "power": 32, "sound": 22,
	}
)

// gapPts is the mean absolute difference, in percentage points, between
// measured per-application values and a paper column.
func gapPts(measured map[string]float64, paper map[string]float64) float64 {
	if len(measured) == 0 {
		return 0
	}
	var sum float64
	for name, v := range measured {
		d := v - paper[name]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(measured))
}

// statsDigest is the sha256 of a Stats value's JSON encoding (the form
// replayd serves in result cells).
func statsDigest(s *pipeline.Stats) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic("perfbench: marshal stats: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// retired is one instruction of a reference execution, as the layer
// suite and the trace generator consume it.
type retired struct {
	pc, next uint32
	in       x86.Inst
	uops     []uop.UOp
	addrs    []uint32
}

// execute runs prog on a fresh reference CPU for up to n instructions
// (stopping early at HLT) and returns the retired stream, decoding and
// translating each distinct PC once.
func execute(prog *workload.Program, n int) ([]retired, error) {
	c := prog.NewCPU()
	type dec struct {
		in   x86.Inst
		uops []uop.UOp
	}
	cache := map[uint32]dec{}
	out := make([]retired, 0, n)
	for len(out) < n {
		pc := c.PC
		d, ok := cache[pc]
		if !ok {
			in, err := x86.Decode(codeAt(prog, pc))
			if err != nil {
				return nil, fmt.Errorf("decode %s at %#x: %w", prog.Name, pc, err)
			}
			us, err := translate.UOps(in, pc)
			if err != nil {
				return nil, fmt.Errorf("translate %s at %#x: %w", prog.Name, pc, err)
			}
			d = dec{in, us}
			cache[pc] = d
		}
		if d.in.Op == x86.OpHLT {
			break
		}
		rec, err := c.Step()
		if err != nil {
			return nil, fmt.Errorf("step %s at %#x: %w", prog.Name, pc, err)
		}
		var addrs []uint32
		if len(rec.MemOps) > 0 {
			addrs = make([]uint32, len(rec.MemOps))
			for i, m := range rec.MemOps {
				addrs[i] = m.Addr
			}
		}
		out = append(out, retired{pc: pc, next: rec.NextPC, in: d.in, uops: d.uops, addrs: addrs})
	}
	return out, nil
}

// codeAt returns up to 15 code-image bytes at pc (the longest IA-32
// instruction).
func codeAt(prog *workload.Program, pc uint32) []byte {
	off := int(pc - prog.Base)
	if off < 0 || off >= len(prog.Code) {
		return nil
	}
	end := off + 15
	if end > len(prog.Code) {
		end = len(prog.Code)
	}
	return prog.Code[off:end]
}

// recordClass maps a micro-op to its external-trace record class.
func recordClass(o uop.Op) xtrace.Class {
	switch {
	case o == uop.LOAD:
		return xtrace.ClassLoad
	case o == uop.STORE:
		return xtrace.ClassStore
	case o == uop.JMP || o == uop.JR || o == uop.BR:
		return xtrace.ClassBranch
	case o == uop.NOP:
		return xtrace.ClassSync
	default:
		return xtrace.ClassExec
	}
}

// buildTrace turns a retired stream into an external trace with its
// code image embedded: one record per micro-op, insts as the measured
// budget and the rest of the stream as replay slack.
func buildTrace(name string, prog *workload.Program, stream []retired, insts int) *xtrace.Trace {
	t := &xtrace.Trace{
		Header: xtrace.Header{
			Version: xtrace.FormatVersion,
			Name:    name,
			Arch:    xtrace.ArchIA32,
			Flags:   xtrace.FlagHasCode,
			Insts:   uint32(insts),
		},
		CodeBase: prog.Base,
		Code:     prog.Code,
	}
	if insts < len(stream) {
		t.Header.Flags |= xtrace.FlagPadded
	}
	for _, r := range stream {
		taken := r.next != r.pc+uint32(r.in.Len)
		mem := 0
		for i, u := range r.uops {
			rec := xtrace.Record{EIP: r.pc, Class: recordClass(u.Op)}
			if i == 0 {
				rec.Flags |= xtrace.RecFirst
			}
			if u.Op.IsMem() && mem < len(r.addrs) {
				rec.Flags |= xtrace.RecHasAddr
				rec.Addr = r.addrs[mem]
				rec.Size = 4
				mem++
			}
			if taken && rec.Class == xtrace.ClassBranch {
				rec.Flags |= xtrace.RecTaken
			}
			t.Records = append(t.Records, rec)
		}
	}
	if n := len(stream); n > 0 {
		t.FinalPC, t.HasFinal = stream[n-1].next, true
	}
	t.Header.UOps = uint64(len(t.Records))
	return t
}

// genTrace generates trace 0 of p, executes insts instructions plus the
// replay slack, and returns the binary-encoded external trace.
func genTrace(name string, p workload.Profile, insts int) ([]byte, error) {
	prog, err := workload.Generate(p, 0)
	if err != nil {
		return nil, err
	}
	stream, err := execute(prog, insts+sim.ReplaySlack)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := xtrace.WriteBinary(&buf, buildTrace(name, prog, stream, insts)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
