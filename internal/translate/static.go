package translate

import (
	"repro/internal/uop"
	"repro/internal/x86"
)

// StaticInst is the static half of a retired instruction: its decode and
// micro-op flow. There is one per PC, shared by every slot that retires
// it and read-only once built. The timing model knows it as
// pipeline.StaticInst.
type StaticInst struct {
	PC   uint32
	Inst x86.Inst
	UOps []uop.UOp
}

// StaticTable is a program's per-PC decode cache: a dense slice over the
// code image, filled lazily, plus a small map for PCs outside it. The
// interpreter, its capture and the timing model all index the same
// table, so each PC is decoded and translated once per program.
//
// Filling is single-goroutine (the interpreter that owns the table);
// once the interpreter is done the table is read-only and may be shared
// by any number of engines.
type StaticTable struct {
	base  uint32
	dense []*StaticInst
	far   map[uint32]*StaticInst
	fetch func(pc uint32) []byte
}

// maxDenseCode caps the dense range, so an oversized code image (an
// uploaded trace's, say) costs map entries per visited PC rather than
// eight bytes per image byte.
const maxDenseCode = 1 << 20

// NewStaticTable returns an empty table whose dense range covers
// codeLen bytes from base. fetch returns the instruction bytes at a PC;
// the table never invalidates (self-modifying code is not modelled).
func NewStaticTable(base uint32, codeLen int, fetch func(pc uint32) []byte) *StaticTable {
	return &StaticTable{base: base, dense: make([]*StaticInst, min(codeLen, maxDenseCode)), fetch: fetch}
}

// Cached returns the entry for pc, or nil if pc has not been looked up.
func (t *StaticTable) Cached(pc uint32) *StaticInst {
	if off := pc - t.base; off < uint32(len(t.dense)) {
		return t.dense[off]
	}
	return t.far[pc]
}

// Lookup returns the static instruction at pc, decoding and translating
// it on first use. Failures are not cached.
func (t *StaticTable) Lookup(pc uint32) (*StaticInst, error) {
	if st := t.Cached(pc); st != nil {
		return st, nil
	}
	in, err := x86.Decode(t.fetch(pc))
	if err != nil {
		return nil, err
	}
	us, err := UOps(in, pc)
	if err != nil {
		return nil, err
	}
	st := &StaticInst{PC: pc, Inst: in, UOps: us}
	if off := pc - t.base; off < uint32(len(t.dense)) {
		t.dense[off] = st
	} else {
		if t.far == nil {
			t.far = make(map[uint32]*StaticInst)
		}
		t.far[pc] = st
	}
	return st, nil
}

// DecodeAt returns the decoded instruction at pc (it makes the table a
// cpu.Decoder). An instruction that decodes but does not translate is
// decoded afresh, so a CPU steps exactly what it would without a table.
func (t *StaticTable) DecodeAt(pc uint32) (*x86.Inst, error) {
	if st, err := t.Lookup(pc); err == nil {
		return &st.Inst, nil
	}
	in, err := x86.Decode(t.fetch(pc))
	return &in, err
}

// SizeBytes estimates the table's heap residency: the dense index plus
// each filled entry (a StaticInst is ~80 bytes, a uop.UOp ~24).
func (t *StaticTable) SizeBytes() int64 {
	b := int64(8 * len(t.dense))
	add := func(st *StaticInst) {
		if st != nil {
			b += 80 + int64(len(st.UOps))*24
		}
	}
	for _, st := range t.dense {
		add(st)
	}
	for _, st := range t.far {
		add(st)
	}
	return b
}
