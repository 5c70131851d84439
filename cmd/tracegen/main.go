// Command tracegen generates, saves, loads, and summarizes workload
// traces — the reproduction's stand-in for the paper's hardware-captured
// x86 trace files.
//
// Usage:
//
//	tracegen -workload bzip2 [-trace 0] [-insts N] [-o file]      generate
//	tracegen -workload bzip2 [-insts N] -export file [-format f]  export a portable uop trace
//	tracegen -stat file                                           summarize a trace file
//	tracegen -list                                                list workloads
//
// -trace selects one of the profile's hot-spot traces (0 up to the
// Traces column of -list, exclusive); any other index is an error.
//
// -export writes the versioned external uop-trace format (see
// internal/xtrace): -format binary (default) or ndjson. Exported files
// replay through replaysim -load or a replayd trace upload with
// bit-identical statistics to the direct run at the same budget.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

func main() {
	name := flag.String("workload", "", "workload profile to capture")
	traceIdx := flag.Int("trace", 0, "hot-spot trace index, below the profile's trace count (-list)")
	insts := flag.Int("insts", 0, "x86 instruction budget (default: profile budget)")
	out := flag.String("o", "", "write the captured trace to this file")
	export := flag.String("export", "", "write the portable external uop trace to this file")
	format := flag.String("format", "binary", "external trace encoding: binary or ndjson")
	stat := flag.String("stat", "", "summarize an existing trace file")
	list := flag.Bool("list", false, "list the workload set (Table 1)")
	flag.Parse()

	if err := run(*name, *traceIdx, *insts, *out, *export, *format, *stat, *list); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// exportTrace captures the workload's retired slot stream (with replay
// slack past the budget, so loaders can stream the same window the
// replay pipeline sees) and writes it in the external format.
func exportTrace(p workload.Profile, traceIdx, insts int, path, format string) error {
	xt, err := sim.CaptureXTrace(p, traceIdx, insts)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "binary":
		err = xtrace.WriteBinary(f, xt)
	case "ndjson":
		err = xtrace.WriteNDJSON(f, xt)
	default:
		return fmt.Errorf("unknown -format %q (want binary or ndjson)", format)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s format, %d records, %d insts, id %s\n",
		path, format, len(xt.Records), xt.Header.Insts, xtrace.TraceID(xt))
	return nil
}

func run(name string, traceIdx, insts int, out, export, format, stat string, list bool) error {
	switch {
	case list:
		t := stats.NewTable("Name", "Class", "Traces", "Insts/trace")
		for _, p := range workload.Profiles {
			t.Row(p.Name, p.Class, p.Traces, p.XInsts)
		}
		t.Write(os.Stdout)
		return nil

	case stat != "":
		f, err := os.Open(stat)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			return err
		}
		printStats(tr)
		return nil

	case name != "":
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		// The index is a generator seed offset, so an out-of-range one
		// would silently build a program the profile does not describe.
		if traceIdx < 0 || traceIdx >= p.Traces {
			return fmt.Errorf("-trace %d outside %s's trace range [0, %d)", traceIdx, p.Name, p.Traces)
		}
		if insts == 0 {
			insts = p.XInsts
		}
		if export != "" {
			return exportTrace(p, traceIdx, insts, export, format)
		}
		prog, err := workload.Generate(p, traceIdx)
		if err != nil {
			return err
		}
		tr, err := prog.Capture(insts)
		if err != nil {
			return err
		}
		printStats(tr)
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := tr.Write(f); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
		return nil
	}
	return fmt.Errorf("nothing to do; see -h")
}

func printStats(tr *trace.Trace) {
	s := tr.ComputeStats()
	fmt.Printf("trace %s: code %d bytes at %#x\n", tr.Name, len(tr.Code), tr.CodeBase)
	t := stats.NewTable("Metric", "Value", "Per kinst")
	per := func(n int) string { return fmt.Sprintf("%.1f", 1000*float64(n)/float64(s.Insts)) }
	t.Row("x86 instructions", s.Insts, "")
	t.Row("loads", s.Loads, per(s.Loads))
	t.Row("stores", s.Stores, per(s.Stores))
	t.Row("taken transfers", s.Branches, per(s.Branches))
	t.Write(os.Stdout)
}
