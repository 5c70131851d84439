// Command replaysim runs the paper's experiments and prints each table
// and figure of the evaluation section.
//
// Usage:
//
//	replaysim -experiment fig6 [-insts N] [-workloads a,b,c]
//	replaysim -load trace.xut [-mode RPO] [-insts N] [-json]
//
// Experiments: table1, table2, fig6, fig7, fig8, table3, fig9, fig10,
// summary (a compact calibration view), attr (per-pass optimization
// attribution), reuse (loop-structure reuse attribution and the
// representative workload subset), cycles (guest-cycle profiler:
// per-PC fetch-cycle attribution with loop-joined hotspots; -pprof
// additionally writes a gzipped pprof profile for `go tool pprof`),
// diff (ablation diff engine: the RPO baseline against the -vs variant
// spec, joined per loop and per optimizer pass with significance-gated
// verdicts, e.g. -experiment diff -vs cse,sf,repeats=3), all.
//
// -load replays an external uop trace (tracegen -export, binary or
// NDJSON, auto-detected) through one processor mode and prints the
// cell; with -json the output is the replayd wire format, so a loaded
// file and an uploaded trace report identically.
//
// -attr appends the attribution table to any experiment; -trace out.json
// records frame-lifecycle events as Chrome trace_event JSON (open in
// chrome://tracing or Perfetto).
//
// -log-format/-log-level control structured diagnostics on stderr; the
// default level is warn so tables stay the only output of a clean run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro"
	"repro/internal/api"
	"repro/internal/cycleprof"
	"repro/internal/diff"
	"repro/internal/logflag"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xtrace"
)

func main() {
	experiment := flag.String("experiment", "summary", "which experiment to run")
	load := flag.String("load", "", "replay an external uop trace file instead of running an experiment")
	mode := flag.String("mode", "RPO", "processor mode for -load: IC, TC, RP or RPO")
	insts := flag.Int("insts", 0, "override the per-trace x86 instruction budget")
	workloads := flag.String("workloads", "", "comma-separated workload subset")
	cache := flag.Bool("cache", true,
		"share slot-stream captures across modes and memoize repeated runs (identical output, much faster -experiment all)")
	jsonOut := flag.Bool("json", false,
		"emit each experiment's rows as JSON in the replayd wire format (fig6..fig10, table3, summary; one object per line with -experiment all)")
	attr := flag.Bool("attr", false,
		"append the per-pass optimization attribution table (which optimizer pass killed/rewrote how many micro-ops, per workload)")
	traceOut := flag.String("trace", "",
		"record frame-lifecycle events and write Chrome trace_event JSON to this file (forces execution: the run memo is bypassed)")
	pprofOut := flag.String("pprof", "",
		"with -experiment cycles: write the guest-cycle profile as gzipped pprof protobuf to this file (inspect with `go tool pprof`)")
	vs := flag.String("vs", "",
		"with -experiment diff: the variant spec to compare against the RPO baseline — comma-separated tokens: pass names to disable (nop,cp,ra,cse,sf,asst,spec), scope=block|inter|frame, mode=IC|TC|RP|RPO, repeats=N (at most 32)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "warn", "minimum log level: debug, info, warn, error")
	flag.Parse()

	// A batch tool's stdout is its report; structured logs default to
	// warn so they only surface problems unless asked for more.
	logger, lerr := logflag.New(os.Stderr, *logFormat, *logLevel)
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "replaysim:", lerr)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	if *load != "" {
		if err := loadAndRun(*load, *mode, *insts, !*cache, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "replaysim:", err)
			os.Exit(1)
		}
		return
	}

	opts := repro.ExpOptions{InstructionBudget: *insts, DisableCache: !*cache}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	if *traceOut != "" {
		opts.Telemetry = telemetry.New(telemetry.Config{
			TraceEvents: 1 << 16,
			Label:       "replaysim -experiment " + *experiment,
		})
	}

	var err error
	switch *experiment {
	case "table1":
		table1()
	case "table2":
		table2()
	case "fig6":
		err = fig6(opts, *jsonOut)
	case "fig7":
		err = breakdown(opts, true, *jsonOut)
	case "fig8":
		err = breakdown(opts, false, *jsonOut)
	case "table3":
		err = table3(opts, *jsonOut)
	case "fig9":
		err = fig9(opts, *jsonOut)
	case "fig10":
		err = fig10(opts, *jsonOut)
	case "summary":
		err = summary(opts, *jsonOut)
	case "attr":
		err = attrTable(opts, *jsonOut)
	case "reuse":
		err = reuseTable(opts, *jsonOut)
	case "cycles":
		err = cyclesTable(opts, *jsonOut, *pprofOut)
	case "diff":
		err = diffTable(opts, *vs, *jsonOut)
	case "all":
		if !*jsonOut {
			table1()
			table2()
		}
		for _, f := range []func() error{
			func() error { return fig6(opts, *jsonOut) },
			func() error { return breakdown(opts, true, *jsonOut) },
			func() error { return breakdown(opts, false, *jsonOut) },
			func() error { return table3(opts, *jsonOut) },
			func() error { return fig9(opts, *jsonOut) },
			func() error { return fig10(opts, *jsonOut) },
		} {
			if err = f(); err != nil {
				break
			}
		}
	default:
		err = fmt.Errorf("unknown experiment %q", *experiment)
	}
	if err == nil && *attr && *experiment != "attr" {
		err = attrTable(opts, *jsonOut)
	}
	if err == nil && *traceOut != "" {
		err = writeTraceFile(opts.Telemetry, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replaysim:", err)
		os.Exit(1)
	}
}

// loadAndRun decodes an external uop trace and simulates it through one
// processor mode, printing a single cell in either the table or the
// replayd wire format. The run memoizes on the trace's content ID, so
// re-running the same file under the same configuration is free.
func loadAndRun(path, modeName string, insts int, noCache, jsonOut bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	xt, err := xtrace.Decode(f, xtrace.Limits{})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	slots, err := xt.Slots()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	mode, err := api.ParseMode(modeName)
	if err != nil {
		return err
	}
	name := xt.Header.Name
	if name == "" {
		name = path
	}
	res, err := sim.RunExternal(context.Background(), sim.ExternalRun{
		Name:        name,
		Fingerprint: xtrace.TraceID(xt),
		Slots:       slots,
		Insts:       int(xt.Header.Insts),
	}, mode, sim.Options{MaxInsts: insts, DisableCache: noCache})
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: api.ExpCell, Cells: []api.Cell{{
			Workload: res.Workload,
			Class:    res.Class,
			Mode:     mode.String(),
			IPC:      res.IPC(),
			Stats:    res.Stats,
		}}})
	}
	fmt.Printf("== External trace %s (%s) ==\n", path, name)
	t := stats.NewTable("Mode", "IPC", "Cycles", "x86 insts", "uops", "uops base", "mispred")
	t.Row(mode.String(), fmt.Sprintf("%.3f", res.IPC()), res.Stats.Cycles,
		res.Stats.X86Retired, res.Stats.UOpsRetired, res.Stats.UOpsBaseline,
		res.Stats.Mispredicts)
	t.Write(os.Stdout)
	return nil
}

// writeTraceFile dumps the collector's event ring as Chrome trace_event
// JSON.
func writeTraceFile(tel *telemetry.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tel.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attrTable runs the RPO configuration with per-pass attribution and
// prints, per workload, the micro-ops each optimizer pass killed or
// rewrote. The killed column sums to the optimizer's aggregate removal
// count (the conservation invariant pinned by the attribution tests).
func attrTable(opts repro.ExpOptions, jsonOut bool) error {
	rows, err := repro.AttributionData(opts)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: api.ExpAttr, Attr: rows})
	}
	fmt.Println("== Per-pass optimization attribution (RPO) ==")
	for _, r := range rows {
		removed := r.Opt.Removed()
		fmt.Printf("%s (%s): %d of %d micro-ops removed\n",
			r.Workload, r.Class, removed, r.Opt.UOpsIn)
		t := stats.NewTable("Pass", "Calls", "Killed", "Rewritten", "% of removed")
		for _, ps := range r.Passes {
			pct := ""
			if removed > 0 {
				pct = fmt.Sprintf("%.1f%%", 100*float64(ps.Killed)/float64(removed))
			}
			t.Row(ps.Pass, ps.Calls, ps.Killed, ps.Rewritten, pct)
		}
		t.Write(os.Stdout)
		fmt.Println()
	}
	return nil
}

// reuseTable runs the RPO configuration with loop-structure reuse
// attribution and prints, per workload, the depth-bucket decomposition
// of retired work and frame-lifecycle events, the heaviest loops, and
// the ranked representative workload subset. The bucket sums equal the
// pipeline's own retired totals (the conservation invariant pinned by
// the reuse tests).
func reuseTable(opts repro.ExpOptions, jsonOut bool) error {
	rep, err := repro.ReuseData(opts)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: api.ExpReuse, Reuse: rep})
	}
	fmt.Println("== Loop-structure reuse attribution (RPO) ==")
	t := stats.NewTable("Workload", "Loops", "Loop uops", "Straight", "d1", "d2", "d3+", "Top trip", "Hit/d1+")
	for i := range rep.Rows {
		r := &rep.Rows[i]
		var topTrip float64
		if len(r.Report.TopLoops) > 0 {
			topTrip = r.Report.TopLoops[0].TripCount()
		}
		var loopHits uint64
		for b := 1; b < len(r.Report.Buckets); b++ {
			loopHits += r.Report.Buckets[b].FrameHits
		}
		pct := func(b int) string {
			if r.Report.TotalUOps == 0 {
				return "0%"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(r.Report.Bucket(b).UOps)/float64(r.Report.TotalUOps))
		}
		t.Row(r.Workload, r.Report.Loops,
			fmt.Sprintf("%.0f%%", 100*r.Report.LoopFrac()),
			pct(0), pct(1), pct(2), pct(3),
			fmt.Sprintf("%.1f", topTrip), loopHits)
	}
	t.Write(os.Stdout)

	fmt.Println("\nreuse-mass fraction (baseline uops retired inside loops):")
	for i := range rep.Rows {
		stats.Bar(os.Stdout, rep.Rows[i].Workload, rep.Rows[i].Report.LoopFrac(), 1.0, 50, "%.2f")
	}

	fmt.Println("\n== Representative subset (greedy, covered reuse mass per simulated instruction) ==")
	st := stats.NewTable("Rank", "Workload", "Gain", "Coverage", "Cost share")
	for _, p := range rep.Subset {
		st.Row(p.Rank, p.Name,
			fmt.Sprintf("%.3f", p.Gain),
			fmt.Sprintf("%.1f%%", 100*p.Coverage),
			fmt.Sprintf("%.1f%%", 100*p.CostFrac))
	}
	st.Write(os.Stdout)
	fmt.Println()
	return nil
}

// cyclesTable runs the RPO configuration with the guest-cycle profiler
// and prints, per workload, where the simulated machine's cycles went:
// the per-bin split of attributed fetch cycles (which sums to the
// measured cycle count exactly — the profiler's conservation
// invariant), the loop-joined hotspots with per-loop IPC and frame
// coverage, and the heaviest individual PCs. With pprofOut the same
// data is also written as a gzipped pprof profile.
func cyclesTable(opts repro.ExpOptions, jsonOut bool, pprofOut string) error {
	rep, err := repro.CycleProfData(opts)
	if err != nil {
		return err
	}
	if pprofOut != "" {
		data, perr := cycleprof.Profile(rep.Profiles())
		if perr != nil {
			return perr
		}
		if werr := os.WriteFile(pprofOut, data, 0o644); werr != nil {
			return werr
		}
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: api.ExpCycles, Cycles: rep})
	}
	order := []pipeline.Bin{pipeline.BinAssert, pipeline.BinMispred, pipeline.BinMiss,
		pipeline.BinStall, pipeline.BinWait, pipeline.BinFrame, pipeline.BinICache}

	fmt.Println("== Guest-cycle profile (RPO): per-PC fetch-cycle attribution ==")
	t := stats.NewTable("Workload", "IPC", "Cycles", "PCs", "Loops",
		"assert", "mispred", "miss", "stall", "wait", "frame", "icache")
	for i := range rep.Rows {
		r := &rep.Rows[i]
		cells := []interface{}{r.Workload, fmt.Sprintf("%.3f", r.IPC),
			r.Report.Cycles, len(r.Report.PCs), len(r.Report.Loops)}
		for _, b := range order {
			cells = append(cells, fmt.Sprintf("%.0f%%", 100*r.Report.BinFrac(b)))
		}
		t.Row(cells...)
	}
	t.Write(os.Stdout)

	fmt.Println("\nstacked composition (a=assert m=mispred M=miss s=stall w=wait F=frame I=icache):")
	runes := []rune{'a', 'm', 'M', 's', 'w', 'F', 'I'}
	var maxCycles float64
	for i := range rep.Rows {
		if c := float64(rep.Rows[i].Report.Cycles); c > maxCycles {
			maxCycles = c
		}
	}
	for i := range rep.Rows {
		r := &rep.Rows[i]
		segs := make([]float64, len(order))
		for j, b := range order {
			segs[j] = float64(r.Report.Bins[b])
		}
		stats.StackedBar(os.Stdout, r.Workload, segs, runes, maxCycles, 70)
	}

	for i := range rep.Rows {
		r := &rep.Rows[i]
		fmt.Printf("\n%s (%s): hottest loops\n", r.Workload, r.Class)
		lt := stats.NewTable("Loop", "Nest", "Trips", "Cycles", "% of run", "IPC", "mispred", "frame", "cover")
		loops := r.Report.Loops
		if len(loops) > 8 {
			loops = loops[:8]
		}
		for j := range loops {
			l := &loops[j]
			lt.Row(fmt.Sprintf("t%d:0x%04x-0x%04x", l.Trace, l.Header, l.Tail),
				l.Nest, fmt.Sprintf("%.1f", l.Trips), l.Cycles,
				fmt.Sprintf("%.1f%%", 100*float64(l.Cycles)/float64(max(r.Report.Cycles, 1))),
				fmt.Sprintf("%.3f", l.IPC()),
				fmt.Sprintf("%.0f%%", 100*l.BinFrac(pipeline.BinMispred)),
				fmt.Sprintf("%.0f%%", 100*l.BinFrac(pipeline.BinFrame)),
				fmt.Sprintf("%.0f%%", 100*l.CoverFrac()))
		}
		lt.Write(os.Stdout)

		fmt.Printf("\n%s: hottest PCs\n", r.Workload)
		pt := stats.NewTable("PC", "Cycles", "% of run", "x86", "uops")
		for _, p := range r.Report.TopPCs(8) {
			pt.Row(fmt.Sprintf("t%d:0x%04x", p.Trace, p.PC), p.Cycles,
				fmt.Sprintf("%.1f%%", 100*float64(p.Cycles)/float64(max(r.Report.Cycles, 1))),
				p.X86, p.UOps)
		}
		pt.Write(os.Stdout)
	}
	fmt.Println()
	return nil
}

// diffTable runs the ablation diff engine: each workload runs under the
// RPO baseline and under the -vs variant, both probed, and the joined
// per-loop × per-pass delta report prints with its significance-gated
// top-line verdicts. The report's residuals are the conservation check:
// zero means every removed micro-op and every cycle delta was pinned to
// a loop and a pass.
func diffTable(opts repro.ExpOptions, vs string, jsonOut bool) error {
	if vs == "" {
		return fmt.Errorf("-experiment diff needs -vs <spec> (e.g. -vs cse,sf or -vs mode=RP)")
	}
	spec, err := api.ParseDiffSpec(vs)
	if err != nil {
		return err
	}
	rep, err := repro.DiffData(opts, spec)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: api.ExpDiff, Diff: rep})
	}
	fmt.Printf("== Ablation diff: %s vs %s ==\n", rep.Baseline, rep.Variant)
	for i := range rep.Rows {
		r := &rep.Rows[i]
		if i > 0 {
			fmt.Println()
		}
		diff.WriteReport(os.Stdout, r.Workload, r.Class, &r.Report)
	}
	fmt.Printf("\n%d loops compared; %d significant regressions, %d significant improvements\n\n",
		rep.LoopsCompared(), rep.SignificantRegressions(), rep.SignificantImprovements())
	return nil
}

func table1() {
	fmt.Println("== Table 1: Experimental Workload ==")
	t := stats.NewTable("Name", "Type of App.", "x86 Insts (scaled)", "Traces")
	for _, w := range repro.Workloads() {
		t.Row(w.Name, w.Class, w.Insts*w.Traces, w.Traces)
	}
	t.Write(os.Stdout)
	fmt.Println()
}

func table2() {
	cfg := repro.ProcessorConfig(repro.RPO)
	fmt.Println("== Table 2: Configuration of Processor ==")
	t := stats.NewTable("Parameter", "Value")
	t.Row("Pipeline", fmt.Sprintf("%d-wide fetch/issue/retire", cfg.Width))
	t.Row("x86 decoders", fmt.Sprintf("%d per cycle", cfg.DecodeWidth))
	t.Row("BR resolution (min)", fmt.Sprintf("%d cycles", cfg.MinBranchResolve))
	t.Row("Predictor", fmt.Sprintf("%d-bit gshare", cfg.GshareBits))
	t.Row("Inst window", fmt.Sprintf("%d micro-ops", cfg.WindowSize))
	t.Row("Exe units", fmt.Sprintf("%d simple ALU, %d complex ALU, %d FPU, %d LSU",
		cfg.SimpleALUs, cfg.ComplexALUs, cfg.FPUs, cfg.LSUs))
	t.Row("Frame/Trace cache", fmt.Sprintf("%dk micro-ops", cfg.FrameCacheUOps/1024))
	t.Row("L1 DCache", fmt.Sprintf("%dkB, %d cycle hit", cfg.L1DBytes/1024, cfg.L1DLat))
	t.Row("L2", fmt.Sprintf("%dkB, %d cycle hit", cfg.L2Bytes/1024, cfg.L2Lat))
	t.Row("Memory", fmt.Sprintf("%d cycles", cfg.MemLat))
	t.Row("Optimizer", fmt.Sprintf("%d cycles/micro-op, depth %d", cfg.OptCyclesPerUOp, cfg.OptPipeDepth))
	t.Write(os.Stdout)
	fmt.Println()
}

// emitJSON prints one experiment response in the replayd wire format,
// so scripted consumers parse CLI and daemon output identically.
func emitJSON(res api.RunResponse) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	return enc.Encode(res)
}

func fig6(opts repro.ExpOptions, jsonOut bool) error {
	rows, err := repro.Figure6(opts)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: api.ExpFig6, Fig6: rows})
	}
	fmt.Println("== Figure 6: x86 Instructions Retired Per Cycle (IC / TC / RP / RPO) ==")
	t := stats.NewTable("Workload", "IC", "TC", "RP", "RPO", "RPO vs RP")
	var gain float64
	for _, r := range rows {
		t.Row(r.Workload, r.IPC[0], r.IPC[1], r.IPC[2], r.IPC[3], fmt.Sprintf("%+.0f%%", r.Gain))
		gain += r.Gain
	}
	t.Write(os.Stdout)
	fmt.Printf("mean IPC increase from optimization: %+.1f%%\n\n", gain/float64(len(rows)))

	fmt.Println("RPO IPC:")
	for _, r := range rows {
		stats.Bar(os.Stdout, r.Workload, r.IPC[3], 5.0, 50, "%.2f")
	}
	fmt.Println()
	return nil
}

func breakdown(opts repro.ExpOptions, spec bool, jsonOut bool) error {
	var rows []repro.BreakdownRow
	var err error
	exp := api.ExpFig8
	if spec {
		exp = api.ExpFig7
		rows, err = repro.Figure7(opts)
	} else {
		rows, err = repro.Figure8(opts)
	}
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: exp, Breakdown: rows})
	}
	if spec {
		fmt.Println("== Figure 7: Execution cycles by fetch event (SPEC), RP vs RPO ==")
	} else {
		fmt.Println("== Figure 8: Execution cycles by fetch event (desktop), RP vs RPO ==")
	}
	t := stats.NewTable("Workload", "Cfg", "Cycles", "assert", "mispred", "miss", "stall", "wait", "frame", "icache")
	var maxCycles float64
	for _, r := range rows {
		if c := float64(r.RP.Cycles); c > maxCycles {
			maxCycles = c
		}
	}
	order := []pipeline.Bin{pipeline.BinAssert, pipeline.BinMispred, pipeline.BinMiss,
		pipeline.BinStall, pipeline.BinWait, pipeline.BinFrame, pipeline.BinICache}
	for _, r := range rows {
		for cfgIdx, s := range []pipeline.Stats{r.RP, r.RPO} {
			name := "RP"
			if cfgIdx == 1 {
				name = "RPO"
			}
			cells := []interface{}{r.Workload, name, s.Cycles}
			for _, b := range order {
				cells = append(cells, s.Bins[b])
			}
			t.Row(cells...)
		}
	}
	t.Write(os.Stdout)
	fmt.Println("\nstacked composition (a=assert m=mispred M=miss s=stall w=wait F=frame I=icache):")
	runes := []rune{'a', 'm', 'M', 's', 'w', 'F', 'I'}
	for _, r := range rows {
		for cfgIdx, s := range []pipeline.Stats{r.RP, r.RPO} {
			label := r.Workload + "/RP"
			if cfgIdx == 1 {
				label = r.Workload + "/RPO"
			}
			segs := make([]float64, len(order))
			for i, b := range order {
				segs[i] = float64(s.Bins[b])
			}
			stats.StackedBar(os.Stdout, label, segs, runes, maxCycles, 70)
		}
	}
	fmt.Println()
	return nil
}

func table3(opts repro.ExpOptions, jsonOut bool) error {
	rows, err := repro.Table3Data(opts)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: api.ExpTable3, Table3: rows})
	}
	fmt.Println("== Table 3: Micro-ops and LOADs removed by the rePLay optimizer ==")
	t := stats.NewTable("Application", "Micro-ops Removed", "Loads Removed", "Increase in IPC", "Coverage", "Abort rate")
	var u, l, i float64
	for _, r := range rows {
		t.Row(r.Workload,
			fmt.Sprintf("%.0f%%", r.UOpsRemoved),
			fmt.Sprintf("%.0f%%", r.LoadsRemoved),
			fmt.Sprintf("%.0f%%", r.IPCIncrease),
			fmt.Sprintf("%.0f%%", 100*r.FrameCoverage),
			fmt.Sprintf("%.1f%%", 100*r.AssertRate))
		u += r.UOpsRemoved
		l += r.LoadsRemoved
		i += r.IPCIncrease
	}
	n := float64(len(rows))
	t.Row("Average", fmt.Sprintf("%.0f%%", u/n), fmt.Sprintf("%.0f%%", l/n), fmt.Sprintf("%.0f%%", i/n), "", "")
	t.Write(os.Stdout)
	fmt.Println()
	return nil
}

func fig9(opts repro.ExpOptions, jsonOut bool) error {
	rows, err := repro.Figure9(opts)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: api.ExpFig9, Fig9: rows})
	}
	fmt.Println("== Figure 9: % IPC speedup, intra-block vs frame-level optimization ==")
	t := stats.NewTable("Workload", "Block", "Frame")
	for _, r := range rows {
		t.Row(r.Workload, fmt.Sprintf("%+.1f%%", r.Block), fmt.Sprintf("%+.1f%%", r.Frame))
	}
	t.Write(os.Stdout)
	fmt.Println()
	return nil
}

func fig10(opts repro.ExpOptions, jsonOut bool) error {
	rows, err := repro.Figure10(opts)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: api.ExpFig10, Fig10: rows})
	}
	fmt.Println("== Figure 10: Relative IPC with individual optimizations disabled ==")
	fmt.Println("(0 = RP, 1 = RPO with all optimizations)")
	header := []string{"Workload"}
	for _, v := range []string{"no ASST", "no CP", "no CSE", "no NOP", "no RA", "no SF"} {
		header = append(header, v)
	}
	header = append(header, "RP IPC", "RPO IPC")
	t := stats.NewTable(header...)
	for _, r := range rows {
		cells := []interface{}{r.Workload}
		for _, v := range r.Relative {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		cells = append(cells, r.RPIPC, r.RPOIPC)
		t.Row(cells...)
	}
	t.Write(os.Stdout)
	fmt.Println()
	return nil
}

func summary(opts repro.ExpOptions, jsonOut bool) error {
	rows, err := repro.Figure6(opts)
	if err != nil {
		return err
	}
	t3, err := repro.Table3Data(opts)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(api.RunResponse{Experiment: api.ExpSummary, Fig6: rows, Table3: t3})
	}
	fmt.Println("== Summary (calibration view) ==")
	t := stats.NewTable("Workload", "IC", "TC", "RP", "RPO", "dIPC", "uops-", "loads-", "cover", "abort")
	for i, r := range rows {
		t.Row(r.Workload, r.IPC[0], r.IPC[1], r.IPC[2], r.IPC[3],
			fmt.Sprintf("%+.0f%%", r.Gain),
			fmt.Sprintf("%.0f%%", t3[i].UOpsRemoved),
			fmt.Sprintf("%.0f%%", t3[i].LoadsRemoved),
			fmt.Sprintf("%.0f%%", 100*t3[i].FrameCoverage),
			fmt.Sprintf("%.1f%%", 100*t3[i].AssertRate))
	}
	t.Write(os.Stdout)
	return nil
}
