package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cycleprof"
	"repro/internal/frame"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/x86"
	"repro/internal/xtrace"
)

// suiteInsts is the per-profile instruction budget of the layer suite.
const suiteInsts = 50_000

// passNames are the optimizer passes TimedPassRecorder reports.
var passNames = []string{"nop", "cp", "ra", "cse", "mem", "assert", "dce"}

// perLayerNames is BENCHMARK.json's per_layer list: the layer metrics a
// traced run of every workload reports, none of them structurally zero.
var perLayerNames = func() []string {
	names := []string{
		"x86.decode_ns_per_inst", "translate.ns_per_inst", "cpu.ns_per_inst",
		"frame.ns_per_uop", "frame.coverage",
		"opt.ns_per_uop",
	}
	for _, p := range passNames {
		names = append(names, "opt.pass."+p+".ns_per_uop")
	}
	names = append(names, "opt.uop_removed_frac")
	for _, m := range modes {
		names = append(names, "pipeline."+m.String()+".ns_per_inst")
	}
	for _, m := range modes {
		names = append(names, "pipeline."+m.String()+".ipc")
	}
	return append(names,
		"sim.run_external_ns_per_inst", "sim.memo_hit_us", "sim.paper_gap_pts",
		"reuse.overhead_frac", "cycleprof.overhead_frac", "diff.overhead_frac",
		"cycleprof.pprof_encode_ms", "reuse.loops",
		"xtrace.decode_mb_per_s", "xtrace.slots_ns_per_uop", "xtrace.spool_put_ms",
		"api.decode_validate_us", "server.hit_p50_us", "server.hit_overhead_us",
		"runtime.alloc_bytes_per_inst", "runtime.alloc_bytes_per_req", "runtime.gc_cpu_frac",
		"layers.residual_frac", "trace.overhead_frac",
	)
}()

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns_per_inst"), strings.HasSuffix(name, ".ns_per_inst"):
		return "ns/inst"
	case strings.HasSuffix(name, "ns_per_uop"):
		return "ns/uop"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "mb_per_s"):
		return "MB/s"
	case strings.HasSuffix(name, ".ipc"):
		return "insts/cycle"
	case strings.HasSuffix(name, "bytes_per_inst"):
		return "B/inst"
	case strings.HasSuffix(name, "bytes_per_req"):
		return "B/req"
	case name == "reuse.loops":
		return "count"
	case strings.HasSuffix(name, "_pts"):
		return "pts"
	}
	return "fraction"
}

// timedRecorder is an opt.TimedPassRecorder summing wall time per pass.
type timedRecorder struct{ ns map[string]time.Duration }

func (r *timedRecorder) RecordPass(uint64, string, int, int) {}

func (r *timedRecorder) RecordPassTimed(_ uint64, pass string, _, _ int, d time.Duration) {
	r.ns[pass] += d
}

// unitCosts is what the layer suite measured, per unit of work.
type unitCosts struct {
	v map[string]float64 // per-layer metrics, by name

	uopsPerInst     float64                   // translated micro-ops per x86 instruction
	optUOpsPerInst  float64                   // micro-ops the RPO engine optimizes per instruction
	uncovered       map[pipeline.Mode]float64 // share of micro-ops fetched outside frames (RP, RPO)
	distinctPerInst float64                   // distinct PCs per executed instruction at suiteInsts
	bytesPerInst    float64                   // encoded external-trace bytes per instruction
	recsPerInst     float64                   // external-trace records per instruction
}

// layerSuite calls each layer's public entry points directly on the
// seed's programs and returns their unit costs. Every timing is a
// single-goroutine wall-clock span around the call.
func layerSuite(ps []workload.Profile) (*unitCosts, error) {
	u := &unitCosts{v: map[string]float64{}, uncovered: map[pipeline.Mode]float64{}}
	spoolDir, err := os.MkdirTemp(tmpRoot, "suite-spool-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spoolDir)
	spool, err := xtrace.OpenSpool(spoolDir, 1<<30)
	if err != nil {
		return nil, err
	}

	var insts, uops, optIn, optRemoved, records, encBytes, distinct float64
	var tCPU, tDecode, tTranslate, tFrame, tOpt, tDecodeX, tSlots, tPut time.Duration
	var modeNs [4]time.Duration
	var modeStats [4]pipeline.Stats
	var memoHits []time.Duration
	rec := &timedRecorder{ns: map[string]time.Duration{}}
	for _, p := range ps {
		prog, err := workload.Generate(p, 0)
		if err != nil {
			return nil, err
		}
		stream, err := execute(prog, suiteInsts+sim.ReplaySlack)
		if err != nil {
			return nil, err
		}
		run := stream[:suiteInsts]
		insts += float64(len(run))
		pcs := map[uint32]bool{}
		for _, r := range run {
			pcs[r.pc] = true
			uops += float64(len(r.uops))
		}
		distinct += float64(len(pcs))

		// cpu: a fresh reference machine stepped to the budget.
		t0 := time.Now()
		c := prog.NewCPU()
		for range run {
			if _, err := c.Step(); err != nil {
				return nil, err
			}
		}
		tCPU += time.Since(t0)

		// x86 and translate, once per retired instruction.
		t0 = time.Now()
		decoded := make([]x86.Inst, len(run))
		for i, r := range run {
			if decoded[i], err = x86.Decode(codeAt(prog, r.pc)); err != nil {
				return nil, err
			}
		}
		tDecode += time.Since(t0)
		t0 = time.Now()
		for i, r := range run {
			if _, err := translate.UOps(decoded[i], r.pc); err != nil {
				return nil, err
			}
		}
		tTranslate += time.Since(t0)

		// frame: construction over the retired stream.
		var frames []*frame.Frame
		fc := frame.NewConstructor(frame.DefaultConfig(), func(f *frame.Frame) { frames = append(frames, f) })
		t0 = time.Now()
		for _, r := range run {
			fc.Retire(r.pc, r.in, r.uops, r.next, r.addrs)
		}
		fc.Flush()
		tFrame += time.Since(t0)

		// opt: remap and optimize every constructed frame.
		t0 = time.Now()
		for _, f := range frames {
			of := opt.Remap(f, opt.ScopeFrame)
			st := opt.OptimizeTraced(of, opt.AllOptions(), rec)
			optIn += float64(st.UOpsIn)
			optRemoved += float64(st.Removed())
			opt.PutOptFrame(of)
		}
		tOpt += time.Since(t0)

		// xtrace: encode, decode, adapt, spool.
		var buf bytes.Buffer
		if err := xtrace.WriteBinary(&buf, buildTrace("suite-"+p.Name, prog, stream, suiteInsts)); err != nil {
			return nil, err
		}
		enc := buf.Bytes()
		encBytes += float64(len(enc))
		t0 = time.Now()
		tr, err := xtrace.Decode(bytes.NewReader(enc), xtrace.Limits{})
		if err != nil {
			return nil, err
		}
		tDecodeX += time.Since(t0)
		records += float64(len(tr.Records))
		t0 = time.Now()
		slots, err := tr.Slots()
		if err != nil {
			return nil, err
		}
		tSlots += time.Since(t0)
		t0 = time.Now()
		id, _, _, err := spool.Put(tr)
		if err != nil {
			return nil, err
		}
		tPut += time.Since(t0)

		// pipeline: each mode on the adapted stream, unmemoized.
		ext := sim.ExternalRun{Name: "suite-" + p.Name, Slots: slots, Insts: suiteInsts}
		for i, m := range modes {
			t0 = time.Now()
			res, err := sim.RunExternal(context.Background(), ext, m, sim.Options{})
			if err != nil {
				return nil, err
			}
			modeNs[i] += time.Since(t0)
			modeStats[i].Add(&res.Stats)
		}
		// sim memo: the second run of a fingerprinted trace is a hit.
		ext.Fingerprint = id
		if _, err := sim.RunExternal(context.Background(), ext, pipeline.ModeRePLayOpt, sim.Options{}); err != nil {
			return nil, err
		}
		t0 = time.Now()
		if _, err := sim.RunExternal(context.Background(), ext, pipeline.ModeRePLayOpt, sim.Options{}); err != nil {
			return nil, err
		}
		memoHits = append(memoHits, time.Since(t0))
	}
	ns := func(d time.Duration, per float64) float64 { return float64(d.Nanoseconds()) / per }
	u.uopsPerInst = uops / insts
	u.distinctPerInst = distinct / insts
	u.bytesPerInst = encBytes / insts
	u.recsPerInst = records / insts
	v := u.v
	v["cpu.ns_per_inst"] = ns(tCPU, insts)
	v["x86.decode_ns_per_inst"] = ns(tDecode, insts)
	v["translate.ns_per_inst"] = ns(tTranslate, insts)
	v["frame.ns_per_uop"] = ns(tFrame, uops)
	v["opt.ns_per_uop"] = ns(tOpt, optIn)
	for _, p := range passNames {
		v["opt.pass."+p+".ns_per_uop"] = ns(rec.ns[p], optIn)
	}
	v["opt.uop_removed_frac"] = optRemoved / optIn
	v["xtrace.decode_mb_per_s"] = encBytes / 1e6 / tDecodeX.Seconds()
	v["xtrace.slots_ns_per_uop"] = ns(tSlots, records)
	v["xtrace.spool_put_ms"] = ms(tPut) / float64(len(ps))
	frameNs, optNs := v["frame.ns_per_uop"], v["opt.ns_per_uop"]
	for i, m := range modes {
		// The engine's own time: the run minus the frame construction
		// and optimization it drives (estimated from their unit costs).
		self := float64(modeNs[i].Nanoseconds())
		if m == pipeline.ModeRePLay || m == pipeline.ModeRePLayOpt {
			// The constructor sees only instructions fetched outside
			// frames.
			u.uncovered[m] = 1 - float64(modeStats[i].CoveredBaseline)/float64(modeStats[i].UOpsBaseline)
			self -= frameNs * uops * u.uncovered[m]
		}
		if m == pipeline.ModeRePLayOpt {
			self -= optNs * float64(modeStats[i].Opt.UOpsIn) * insts / float64(modeStats[i].X86Retired)
		}
		v["pipeline."+m.String()+".ns_per_inst"] = self / insts
		v["pipeline."+m.String()+".ipc"] = modeStats[i].IPC()
	}
	rpo := modeStats[3]
	// The engine optimizes only the frames it admits to the optimizer,
	// so its per-instruction optimizer load comes from its own Stats.
	u.optUOpsPerInst = float64(rpo.Opt.UOpsIn) / float64(rpo.X86Retired)
	v["frame.coverage"] = float64(rpo.CoveredBaseline) / float64(rpo.UOpsBaseline)
	v["sim.run_external_ns_per_inst"] = ns(modeNs[3], insts)
	v["sim.memo_hit_us"] = float64(median(memoHits).Nanoseconds()) / 1e3

	if err := probeOverheads(ps, v); err != nil {
		return nil, err
	}
	if err := apiAndServer(v); err != nil {
		return nil, err
	}
	return u, nil
}

// probeOverheads compares each analysis experiment with the unprobed RPO
// runs of the same cells, in process CPU time (both sides interpret
// their own streams, so neither is served from a cache).
func probeOverheads(ps []workload.Profile, v map[string]float64) error {
	ctx := context.Background()
	o := sim.Options{MaxInsts: suiteInsts, DisableCache: true}
	spec, err := api.ParseDiffSpec("cse,sf")
	if err != nil {
		return err
	}
	cpuOf := func(fn func() error) (time.Duration, error) {
		c0 := cpuTime()
		err := fn()
		return cpuTime() - c0, err
	}
	plain := func(mod func(*pipeline.Config)) func() error {
		return func() error {
			po := o
			po.ConfigMod = mod
			var mu sync.Mutex
			var err error
			parallel(len(ps), func(i int) {
				if _, e := sim.RunWorkload(ctx, ps[i], pipeline.ModeRePLayOpt, po); e != nil {
					mu.Lock()
					err = e
					mu.Unlock()
				}
			})
			return err
		}
	}
	base, err := cpuOf(plain(nil))
	if err != nil {
		return err
	}
	variant, err := cpuOf(plain(spec.Config.Mod()))
	if err != nil {
		return err
	}
	var crep *sim.CycleReport
	reuseT, err := cpuOf(func() error { rep, err := sim.Reuse(ctx, ps, o); sumLoops(rep, v); return err })
	if err != nil {
		return err
	}
	cycT, err := cpuOf(func() error { var err error; crep, err = sim.CycleProf(ctx, ps, o); return err })
	if err != nil {
		return err
	}
	diffT, err := cpuOf(func() error {
		_, err := sim.Diff(ctx, ps, o,
			sim.DiffVariant{Label: "baseline", Mode: pipeline.ModeRePLayOpt, HasMode: true},
			sim.DiffVariant{Label: "cse,sf", Mode: pipeline.ModeRePLayOpt, HasMode: true,
				ConfigMod: spec.Config.Mod(), Repeats: 1})
		return err
	})
	if err != nil {
		return err
	}
	v["reuse.overhead_frac"] = reuseT.Seconds()/base.Seconds() - 1
	v["cycleprof.overhead_frac"] = cycT.Seconds()/base.Seconds() - 1
	v["diff.overhead_frac"] = diffT.Seconds()/(base+variant).Seconds() - 1
	t0 := time.Now()
	if _, err := cycleprof.Profile(crep.Profiles()); err != nil {
		return err
	}
	v["cycleprof.pprof_encode_ms"] = ms(time.Since(t0))
	return nil
}

func sumLoops(rep *sim.ReuseReport, v map[string]float64) {
	if rep == nil {
		return
	}
	n := 0
	for _, r := range rep.Rows {
		n += r.Report.Loops
	}
	v["reuse.loops"] = float64(n)
}

// apiAndServer times the request front end: decoding and validating
// the read-set bodies, and sequential memo-hit requests against a fresh
// in-process replayd.
func apiAndServer(v map[string]float64) error {
	reads := readSet()
	const rounds = 50
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, body := range reads {
			var req api.RunRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			c := req.Canonical()
			if err := c.Validate(); err != nil {
				return err
			}
			_ = c.Key()
		}
	}
	apiUs := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(rounds*len(reads))
	v["api.decode_validate_us"] = apiUs

	spool, err := os.MkdirTemp(tmpRoot, "suite-server-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spool)
	l, err := startServer(filepath.Join(spool, "spool"))
	if err != nil {
		return err
	}
	defer l.stop()
	body := reads[0]
	if _, err := runRequest(l.url, body); err != nil {
		return err
	}
	var hits []time.Duration
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		if _, err := runRequest(l.url, body); err != nil {
			return err
		}
		hits = append(hits, time.Since(t0))
	}
	p50 := float64(median(hits).Nanoseconds()) / 1e3
	v["server.hit_p50_us"] = p50
	v["server.hit_overhead_us"] = p50 - apiUs - v["sim.memo_hit_us"]
	return nil
}

// layerReport runs the layer suite, estimates each layer's self time in
// the traced phase from the suite's unit costs and the phase's counted
// work, and fills the per-layer metrics. untraced is the first half of
// the measured time, traced the second (where spans were recorded).
func (b *bench) layerReport(out *outcome, ps []workload.Profile, untraced, traced *phase, m *mix) error {
	k0 := kernel(3)
	u, err := layerSuite(ps)
	if err != nil {
		return err
	}
	suiteSpeed, phaseSpeed := speed((k0+kernel(3))/2), speed(median(traced.kern))
	// The accounting prices the traced phase's work at the phase's speed;
	// the reported unit costs are scaled to the reference speed, like the
	// end-to-end timings.
	raw := u.v
	v := map[string]float64{}
	for name, x := range raw {
		switch layerUnit(name) {
		case "ns/inst", "ns/uop", "us", "ms":
			v[name] = x * phaseSpeed / suiteSpeed
		case "MB/s":
			v[name] = x / phaseSpeed * suiteSpeed
		default:
			v[name] = x
		}
	}
	est := map[string]float64{} // layer -> estimated self time in the traced phase, ns
	pipeNs := func(m pipeline.Mode) float64 { return v["pipeline."+m.String()+".ns_per_inst"] }
	engine := func(insts float64, m pipeline.Mode) {
		est["pipeline"] += pipeNs(m) * insts
		if m == pipeline.ModeRePLay || m == pipeline.ModeRePLayOpt {
			est["frame"] += v["frame.ns_per_uop"] * u.uopsPerInst * u.uncovered[m] * insts
		}
		if m == pipeline.ModeRePLayOpt {
			est["opt"] += v["opt.ns_per_uop"] * u.optUOpsPerInst * insts
		}
	}
	interp := func(insts float64) {
		est["cpu"] += v["cpu.ns_per_inst"] * insts
		est["x86+translate"] += (v["x86.decode_ns_per_inst"] + v["translate.ns_per_inst"]) * u.distinctPerInst * insts
	}
	count := map[string]float64{}
	for _, s := range traced.spans {
		count[s.name]++
	}
	for _, s := range traced.spans {
		switch s.name {
		case "sim.Fig6":
			// One interpretation per trace (captured and replayed for the
			// other three modes), then the four engines.
			per := traced.insts / 4 / count[s.name]
			interp(per)
			for _, md := range modes {
				engine(per, md)
			}
		case "sim.Reuse", "sim.CycleProf", "sim.Diff":
			// Captures survive across analysis sweeps, so the traced half
			// replays them without interpreting.
			per := traced.insts / (count["sim.Reuse"] + count["sim.CycleProf"] + 2*count["sim.Diff"])
			runs := 1.0
			probe := map[string]string{"sim.Reuse": "reuse", "sim.CycleProf": "cycleprof", "sim.Diff": "diff"}[s.name]
			if s.name == "sim.Diff" {
				runs = 2
			}
			before := est["pipeline"] + est["frame"] + est["opt"]
			for r := 0.0; r < runs; r++ {
				engine(per, pipeline.ModeRePLayOpt)
			}
			est[probe] += (est["pipeline"] + est["frame"] + est["opt"] - before) * v[probe+".overhead_frac"]
		case "POST /v1/run (hit)":
			est["api"] += v["api.decode_validate_us"] * 1e3
			est["server"] += v["server.hit_overhead_us"] * 1e3
			est["sim"] += v["sim.memo_hit_us"] * 1e3
		case "POST /v1/traces":
			est["xtrace"] += uploadInsts*(u.bytesPerInst/(v["xtrace.decode_mb_per_s"]*1e6)*1e9+
				u.recsPerInst*v["xtrace.slots_ns_per_uop"]) + v["xtrace.spool_put_ms"]*1e6
			est["api"] += v["api.decode_validate_us"] * 1e3
		case "POST /v1/run (trace)":
			// The run reads the trace back from the spool and adapts it
			// again before simulating.
			est["xtrace"] += uploadInsts * (u.bytesPerInst/(v["xtrace.decode_mb_per_s"]*1e6)*1e9 +
				u.recsPerInst*v["xtrace.slots_ns_per_uop"])
			est["api"] += v["api.decode_validate_us"] * 1e3
			engine(uploadInsts, pipeline.ModeRePLayOpt)
		}
	}
	var sum float64
	for _, x := range est {
		sum += x
	}
	cpuNs := float64(traced.cpu.Nanoseconds())
	v["layers.residual_frac"] = 1 - sum/cpuNs

	rate := func(ph *phase) float64 {
		if ph.insts > 0 {
			return ph.insts / ph.wall.Seconds()
		}
		return float64(ph.reqs) / ph.wall.Seconds()
	}
	v["trace.overhead_frac"] = rate(untraced)/rate(traced) - 1
	v["runtime.alloc_bytes_per_inst"] = traced.rt.allocBytes / traced.insts
	v["runtime.alloc_bytes_per_req"] = traced.rt.allocBytes / float64(traced.reqs)
	v["runtime.gc_cpu_frac"] = traced.rt.gcCPU / traced.rt.totalCPU

	for name, x := range raw {
		switch layerUnit(name) {
		case "ns/inst", "ns/uop", "us", "ms":
			v[name] = x / suiteSpeed
		case "MB/s":
			v[name] = x * suiteSpeed
		}
	}
	v["sim.paper_gap_pts"] = out.gap
	out.layers = v
	out.table = append(layerTable(out, traced, est, cpuNs, m),
		fmt.Sprintf("speed factors: layer suite %.4f, traced phase %.4f (per-layer times are scaled to the reference speed)", suiteSpeed, phaseSpeed))
	for _, name := range perLayerNames {
		if _, ok := v[name]; !ok {
			return fmt.Errorf("layer metric %s was not measured", name)
		}
	}
	return nil
}

// layerTable renders the traced phase's accounting: the spans the
// benchmark recorded around its calls, each layer's estimated self time
// beside the phase's CPU time and end-to-end rate, and the residual.
func layerTable(out *outcome, ph *phase, est map[string]float64, cpuNs float64, m *mix) []string {
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	add("traced phase: wall %.3f s, process CPU %.3f s, %.0f guest insts (%.4g insts/s), %d requests (%.4g req/s)",
		ph.wall.Seconds(), cpuNs/1e9, ph.insts, ph.insts/ph.wall.Seconds(), ph.reqs, float64(ph.reqs)/ph.wall.Seconds())
	type agg struct {
		n     int
		total time.Duration
		alloc float64
	}
	spans := map[string]*agg{}
	for _, s := range ph.spans {
		a := spans[s.name]
		if a == nil {
			a = &agg{}
			spans[s.name] = a
		}
		a.n++
		a.total += s.dur
		a.alloc += s.alloc
	}
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	add("%-24s %8s %12s %12s %14s", "span (benchmark call)", "count", "total ms", "mean ms", "mean alloc KB")
	for _, n := range names {
		a := spans[n]
		add("%-24s %8d %12.1f %12.3f %14.1f", n, a.n, ms(a.total), ms(a.total)/float64(a.n), a.alloc/1024/float64(a.n))
	}
	layers := make([]string, 0, len(est))
	for l := range est {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	add("%-24s %12s %12s", "layer (estimated self)", "ms", "share of CPU")
	for _, l := range layers {
		add("%-24s %12.1f %12.4f", l, est[l]/1e6, est[l]/cpuNs)
	}
	add("%-24s %12s %12.4f", "layers.residual_frac", "", out.layers["layers.residual_frac"])
	add("%-24s %12s %12.4f", "trace.overhead_frac", "", out.layers["trace.overhead_frac"])
	sm := sim.SnapshotMetrics()
	add("sim.capture_hit_frac %.4f  sim.memo_hit_frac %.4f  (process totals: %d capture builds, %d capture hits, %d runs, %d memo hits)",
		frac(sm.CaptureHits, sm.CaptureHits+sm.CaptureBuilds), frac(sm.MemoHits, sm.MemoHits+sm.RunsExecuted),
		sm.CaptureBuilds, sm.CaptureHits, sm.RunsExecuted, sm.MemoHits)
	if m != nil {
		add("%s", m.serverCounters())
	}
	keys := make([]string, 0, len(out.layers))
	for k := range out.layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	add("per-layer metrics:")
	for _, k := range keys {
		add("  %-34s %14.6g %s", k, out.layers[k], layerUnit(k))
	}
	return lines
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serverCounters reads the coalescing and rejection counters from the
// mix server's /metrics.
func (m *mix) serverCounters() string {
	resp, err := httpClient.Get(m.l.url + "/metrics")
	if err != nil {
		return "server counters: " + err.Error()
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	val := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, name := range []string{"replayd_requests_total", "replayd_coalesced_hits_total", "replayd_rejected_total"} {
			if strings.HasPrefix(line, name+" ") {
				var x float64
				fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &x)
				val[name] = x
			}
		}
	}
	req := val["replayd_requests_total"]
	return fmt.Sprintf("server.coalesced_frac %.4f  server.rejected_frac %.4f  (of %.0f submissions)",
		val["replayd_coalesced_hits_total"]/req, val["replayd_rejected_total"]/req, req)
}
