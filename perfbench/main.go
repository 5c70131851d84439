// Command perfbench is the repository's benchmark: it runs one workload
// (fig6-cold, analysis-sweep or replayd-mix) for a fixed time in this
// process, checks every output it gets, and prints one JSON result line.
// With -trace 1 it also runs the per-layer suite and prints the layer
// accounting table. See README.md for the workloads and metrics; run it
// through run.py, which builds it from the surrounding checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	wl := flag.String("workload", "", "fig6-cold | analysis-sweep | replayd-mix")
	seed := flag.Int64("seed", defaultSeed, "workload seed (1 = calibrated profile set)")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	digests := flag.String("digests", "perfbench/digests.json", "recorded fig6-cold Stats digests")
	record := flag.Bool("record-digests", false, "record fig6-cold digests for the default and held-out seeds into -digests, then exit")
	commit := flag.String("commit", "unknown", "source revision, for the provenance line")
	flag.StringVar(&tmpRoot, "tmp", tmpRoot, "directory for the run's temporary files (trace pool, spools)")
	genDir := flag.String("gen-uploads", "", "internal: write replayd-mix uploads [-from, -to) for -seed into this directory")
	from := flag.Int("from", 0, "internal: first upload for -gen-uploads")
	to := flag.Int("to", 0, "internal: end of the uploads for -gen-uploads")
	flag.Parse()

	if *genDir != "" {
		if err := genUploads(*genDir, *seed, *from, *to); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	if *record {
		if err := recordDigests(*digests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ref, err := loadDigests(*digests, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1, digests: ref}
	fmt.Printf("provenance: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d workload=%s trace=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit, *seed, *wl, *traced)

	var out *outcome
	switch *wl {
	case "fig6-cold":
		out, err = b.fig6Cold()
	case "analysis-sweep":
		out, err = b.analysisSweep()
	case "replayd-mix":
		out, err = b.replaydMix()
	default:
		err = fmt.Errorf("unknown workload %q", *wl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := out.result(b.traced)
	for _, f := range out.failures {
		fmt.Println("failure:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// tmpRoot holds a run's temporary files; run.py points it inside the
// checkout's build directory.
var tmpRoot = ".bench_build/tmp"

// bench holds one run's settings.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	digests map[string]string // "<profile>/<mode>" -> fig6-cold Stats digest; nil if unrecorded
}

// outcome is what a workload run measured.
type outcome struct {
	setup []time.Duration // each set-up
	kern  []time.Duration // calibration-kernel timings outside the measured phase

	// The measured phase (the untraced half in a traced run).
	ph         *phase
	rssMB      float64 // peak RSS when the measured phase ended
	reqQ, simQ float64 // tail quantiles: p99 needs >= 1000 samples, else p90
	gap        float64 // sim.paper_gap_pts

	attempted, failed int
	failures          []string

	// Workload-specific figures printed beside the end-to-end metrics
	// (replayd-mix's per-class latencies and counts).
	extra []named

	layers map[string]float64 // per-layer metrics (traced runs)
	table  []string           // layer accounting table (traced runs)
}

type named struct {
	name, unit string
	value      float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fail counts a failed or wrong operation; the first few are printed.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// kernels is every calibration-kernel timing the run took.
func (o *outcome) kernels() []time.Duration {
	return append(append([]time.Duration(nil), o.kern...), o.ph.kern...)
}

// speed is the run's speed factor: its median kernel time over calRef.
func (o *outcome) speed() float64 { return speed(median(o.kernels())) }

// endToEnd returns the BENCHMARK.json end-to-end metrics, in its order,
// as measured (raw) and scaled to the reference host speed.
func (o *outcome) endToEnd() (raw, scaled []named) {
	ph := o.ph
	metrics := func(f float64) []named {
		at := func(d time.Duration) time.Duration { return time.Duration(float64(d) / f) }
		wall := at(ph.wall).Seconds()
		return []named{
			{"setup_s", "s", at(median(o.setup)).Seconds()},
			{"sim_insts_per_s", "insts/s", ph.insts / wall},
			{"max_rss_mb", "MB", o.rssMB},
			{"req_per_s", "req/s", float64(ph.reqs) / wall},
			{"req_p50_ms", "ms", ms(at(quantile(ph.req, 0.5)))},
			{"req_tail_ms", "ms", ms(at(chunkedTail(ph.req, o.reqQ)))},
			{"sim_req_p50_ms", "ms", ms(at(quantile(ph.simReq, 0.5)))},
			{"sim_req_tail_ms", "ms", ms(at(quantile(ph.simReq, o.simQ)))},
		}
	}
	return metrics(1), metrics(o.speed())
}

func (o *outcome) result(traced bool) result {
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	raw, e2e := o.endToEnd()
	ks := o.kernels()
	fmt.Printf("calibration: kernel median %.2f ms (p10 %.2f, p90 %.2f) over %d timings: speed factor %.4f (times are divided, rates multiplied by it)\n",
		ms(median(ks)), ms(quantile(ks, 0.1)), ms(quantile(ks, 0.9)), len(ks), o.speed())
	fmt.Printf("%-22s %16s %16s  %s\n", "end-to-end metric", "value", "raw", "unit")
	for i, m := range e2e {
		fmt.Printf("%-22s %16.6g %16.6g  %s\n", m.name, m.value, raw[i].value, m.unit)
	}
	fmt.Printf("%-22s %16s  req=p%g over %d samples (median over %d chunks), sim_req=p%g over %d samples\n",
		"tail quantiles", "", 100*o.reqQ, len(o.ph.req), tailChunks(len(o.ph.req)), 100*o.simQ, len(o.ph.simReq))
	fmt.Printf("%-22s %16.6g %16s  %s\n", "paper_gap_pts", o.gap, "", "pts (per-layer metric sim.paper_gap_pts)")
	for _, m := range o.extra {
		fmt.Printf("%-22s %16.6g  %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("%-22s %16.6g  %s\n", "error_rate", float64(o.failed)/float64(res.Attempted),
		fmt.Sprintf("fraction (%d of %d failed)", o.failed, res.Attempted))
	if traced {
		for _, line := range o.table {
			fmt.Println(line)
		}
		for _, name := range perLayerNames {
			res.Metrics[name] = metric{Value: o.layers[name], Unit: layerUnit(name)}
		}
		return res
	}
	for _, m := range e2e {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// tailQ is the highest of p99 and p90 that leaves at least ten samples
// beyond it.
func tailQ(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	return 0.9
}

// tailChunk is the number of consecutive samples whose tail a long run
// takes on its own; its p99 leaves ten samples beyond it. A chunk of
// replayd-mix reads spans about a third of a second of traffic, so a
// burst of load from other tenants of the host slows a few chunks and
// hardly moves the median of their tails, while a slower program moves
// every chunk's tail. In six runs on the reference host beside a bursty
// CPU hog, the whole-run read p99 ranged over 31% of its median, the
// median of the chunks' p99s over 13%.
const tailChunk = 1000

// tailChunks is how many chunks chunkedTail splits n samples into.
func tailChunks(n int) int { return max(n/tailChunk, 1) }

// chunkedTail is the median over consecutive chunks of tailChunk
// samples (the last one takes the remainder) of each chunk's
// q-quantile; with fewer than two chunks' worth it is ds's q-quantile.
func chunkedTail(ds []time.Duration, q float64) time.Duration {
	n := tailChunks(len(ds))
	qs := make([]time.Duration, n)
	for i := range qs {
		end := (i + 1) * tailChunk
		if i == n-1 {
			end = len(ds)
		}
		qs[i] = quantile(ds[i*tailChunk:end], q)
	}
	return median(qs)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rtSample snapshots the runtime counters the runtime layer reports.
type rtSample struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// seedString keeps seeds readable in file names and digests.
func seedString(seed int64) string { return strconv.FormatInt(seed, 10) }
