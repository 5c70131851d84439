package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/x86"
	"repro/internal/xtrace"
)

// drain pulls up to n slots from src.
func drain(src pipeline.Stream, n int) []pipeline.Slot {
	out := make([]pipeline.Slot, n)
	got := 0
	for got < n {
		m := src.Fill(out[got:])
		if m == 0 {
			break
		}
		got += m
	}
	return out[:got]
}

// sharedPerPC checks that every slot of one PC points at the same
// static entry, and that the entry describes that PC.
func sharedPerPC(t *testing.T, name string, slots []pipeline.Slot) map[uint32]*pipeline.StaticInst {
	t.Helper()
	seen := map[uint32]*pipeline.StaticInst{}
	for i, s := range slots {
		if s.StaticInst == nil || s.StaticInst.PC != s.PC {
			t.Fatalf("%s: slot %d has no static entry for its PC", name, i)
		}
		if p, ok := seen[s.PC]; ok && p != s.StaticInst {
			t.Fatalf("%s: slot %d at PC %#x carries a copy, not the shared entry", name, i, s.PC)
		}
		seen[s.PC] = s.StaticInst
	}
	if len(seen) == len(slots) {
		t.Fatalf("%s: no PC retired twice; the check is vacuous", name)
	}
	return seen
}

// TestSlotsShareStaticInst: the interpreter stream, the capture replay
// and the xtrace adapter hand out one *StaticInst per PC, never copies;
// two engines replaying one capture share the interpreter's entries.
func TestSlotsShareStaticInst(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6_000
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharedPerPC(t, "cpuStream", drain(newCPUStream(prog), n))

	prog, err = workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := captureRecorded(prog, n)
	a := sharedPerPC(t, "replay", drain(&replayStream{rec: rec}, n))
	b := sharedPerPC(t, "second replay", drain(&replayStream{rec: rec}, n))
	for pc, st := range a {
		if b[pc] != st || rec.static.Cached(pc) != st {
			t.Fatalf("replays of one capture disagree on the entry for PC %#x", pc)
		}
	}

	xt, err := CaptureXTrace(p, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := xt.Slots()
	if err != nil {
		t.Fatal(err)
	}
	sharedPerPC(t, "xtrace codeSlots", slots)
}

// TestOutsideImagePC: a PC outside the code image decodes from memory as
// it always has (through the table's fallback map, still one entry per
// PC), and an undecodable one ends the stream with the decoder's error.
func TestOutsideImagePC(t *testing.T) {
	const base, far, bad = 0x0040_0000, 0x0050_0000, 0x0060_0000
	enc := func(ins ...x86.Inst) []byte {
		var b []byte
		for _, in := range ins {
			e, err := x86.Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			b = append(b, e...)
		}
		return b
	}
	jumpTo := func(r x86.Reg, target uint32) []x86.Inst {
		return []x86.Inst{
			{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(r), Src: x86.ImmOp(int32(target))},
			{Op: x86.OpJMP, Cond: x86.CondNone, Dst: x86.RegOp(r)},
		}
	}
	// The image jumps to far; far loops back to the image.
	farCode := enc(append([]x86.Inst{{Op: x86.OpNOP, Cond: x86.CondNone}}, jumpTo(x86.EBX, base)...)...)
	prog := &workload.Program{Name: "far", Base: base, Entry: base,
		Code: enc(jumpTo(x86.EAX, far)...),
		Data: []workload.Segment{{Addr: far, Bytes: farCode}}}

	src := newCPUStream(prog)
	slots := drain(src, 40)
	if len(slots) != 40 || src.err != nil {
		t.Fatalf("far loop retired %d slots, err %v", len(slots), src.err)
	}
	entries := sharedPerPC(t, "far loop", slots)
	farPCs := 0
	for pc, st := range entries {
		in, err := x86.Decode(src.c.Mem.ReadBytes(pc, 15))
		if err != nil {
			t.Fatal(err)
		}
		us, err := translate.UOps(in, pc)
		if err != nil {
			t.Fatal(err)
		}
		if st.Inst != in || len(st.UOps) != len(us) {
			t.Errorf("PC %#x: table entry %v, memory decodes %v", pc, st.Inst, in)
		}
		if pc >= far {
			farPCs++
		}
	}
	if farPCs != 3 {
		t.Fatalf("%d distinct PCs outside the image, want 3", farPCs)
	}

	// An undecodable PC outside the image stops the stream with exactly
	// the decoder's error.
	prog = &workload.Program{Name: "bad", Base: base, Entry: base,
		Code: enc(jumpTo(x86.EAX, bad)...),
		Data: []workload.Segment{{Addr: bad, Bytes: []byte{0x0f, 0x0b}}}}
	src = newCPUStream(prog)
	if got := drain(src, 10); len(got) != 2 {
		t.Fatalf("retired %d slots before the bad PC, want 2", len(got))
	}
	_, want := x86.Decode(src.c.Mem.ReadBytes(bad, 15))
	if want == nil || src.err == nil || src.err.Error() != want.Error() {
		t.Fatalf("stream error %v, want the decoder's %v", src.err, want)
	}
}

// TestStreamErrorPositional: the engine reads ahead of what it retires,
// so an interpreter error is a run's error only if the run consumed up
// to it. A program that reaches an undecodable PC just past the budget
// (within the window's read-ahead) finishes cleanly, live and from a
// capture; with a budget that reaches the PC, both return the decoder's
// error.
func TestStreamErrorPositional(t *testing.T) {
	const base, bad, iters = 0x0040_0000, 0x0060_0000, 1000
	var code []byte
	emit := func(in x86.Inst) uint32 {
		pc := base + uint32(len(code))
		e, err := x86.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		code = append(code, e...)
		return pc
	}
	// MOV ECX, iters; loop: SUB ECX, 1; JNE loop; MOV EAX, bad; JMP EAX.
	emit(x86.Inst{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.ECX), Src: x86.ImmOp(iters)})
	loop := emit(x86.Inst{Op: x86.OpSUB, Cond: x86.CondNone, Dst: x86.RegOp(x86.ECX), Src: x86.ImmOp(1)})
	br := base + uint32(len(code))
	if emit(x86.Inst{Op: x86.OpJCC, Cond: x86.CondNE, Dst: x86.ImmOp(int32(loop) - int32(br) - 2)}); len(code) != int(br-base)+2 {
		t.Fatal("loop branch is not a 2-byte encoding")
	}
	emit(x86.Inst{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(bad)})
	emit(x86.Inst{Op: x86.OpJMP, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX)})
	prog := &workload.Program{Name: "positional", Base: base, Entry: base, Code: code,
		Data: []workload.Segment{{Addr: bad, Bytes: []byte{0x0f, 0x0b}}}}
	const reached = 2*iters + 3 // slots retired before the bad PC
	_, want := x86.Decode([]byte{0x0f, 0x0b})
	if want == nil {
		t.Fatal("the bad PC decodes")
	}

	cfg := pipeline.DefaultConfig(pipeline.ModeICache)
	run := func(src slotSource, budget int) error {
		_, err := runStreamStats(context.Background(), prog.Name, src, cfg, pipeline.ModeICache, Options{}, budget, 0.4, 0)
		return err
	}
	for _, tc := range []struct {
		budget int
		fails  bool
	}{{reached - 20, false}, {reached + 100, true}} {
		live := newCPUStream(prog)
		err := run(live, tc.budget)
		if live.err == nil {
			t.Fatalf("budget %d: the live stream never met the bad PC; the check is vacuous", tc.budget)
		}
		rec := captureRecorded(prog, tc.budget+captureSlack)
		if len(rec.pcs) != reached || rec.err == nil {
			t.Fatalf("capture holds %d slots (err %v), want %d ending in the decoder's error", len(rec.pcs), rec.err, reached)
		}
		cerr := run(&replayStream{rec: rec}, tc.budget)
		for path, err := range map[string]error{"live": err, "capture": cerr} {
			switch {
			case !tc.fails && err != nil:
				t.Errorf("%s, budget %d short of the bad PC: %v", path, tc.budget, err)
			case tc.fails && (err == nil || !strings.HasSuffix(err.Error(), want.Error())):
				t.Errorf("%s, budget %d past the bad PC: error %v, want the decoder's %v", path, tc.budget, err, want)
			}
		}
	}
}

// TestDeterminismMatrix: for every profile and mode, the cached run, the
// uncached (live-interpreted) run and the xtrace round trip (capture,
// binary encode, decode, adapt, replay) produce byte-identical Stats.
func TestDeterminismMatrix(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	const budget = 3_000
	ctx := context.Background()
	modes := []pipeline.Mode{pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt}
	statsJSON := func(s pipeline.Stats) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, p := range workload.Profiles {
		// One round-tripped slot stream per hot-spot trace.
		var ext [][]pipeline.Slot
		for tr := 0; tr < p.Traces; tr++ {
			xt, err := CaptureXTrace(p, tr, budget)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := xtrace.WriteBinary(&buf, xt); err != nil {
				t.Fatal(err)
			}
			dec, err := xtrace.Decode(&buf, xtrace.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			slots, err := dec.Slots()
			if err != nil {
				t.Fatal(err)
			}
			ext = append(ext, slots)
		}
		for _, m := range modes {
			cached, err := RunWorkload(ctx, p, m, Options{MaxInsts: budget})
			if err != nil {
				t.Fatal(err)
			}
			live, err := RunWorkload(ctx, p, m, Options{MaxInsts: budget, DisableCache: true})
			if err != nil {
				t.Fatal(err)
			}
			var round pipeline.Stats
			for _, slots := range ext {
				r, err := RunExternal(ctx, ExternalRun{Name: p.Name, Slots: slots, Insts: budget}, m, Options{})
				if err != nil {
					t.Fatal(err)
				}
				round.Add(&r.Stats)
			}
			want := statsJSON(cached.Stats)
			if got := statsJSON(live.Stats); got != want {
				t.Errorf("%s/%s: cache off differs from cache on:\n off: %s\n on:  %s", p.Name, m, got, want)
			}
			if got := statsJSON(round); got != want {
				t.Errorf("%s/%s: xtrace round trip differs from the live run:\n xtrace: %s\n live:   %s", p.Name, m, got, want)
			}
		}
	}
}
