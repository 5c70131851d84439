package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// clients is the number of closed-loop callers: one per CPU of the
// 2-CPU reference host, matching replayd's default worker count.
const clients = 2

// minBatchCalls keeps at least ten samples beyond a batch workload's
// p90 call latency.
const minBatchCalls = 100

var modes = []pipeline.Mode{pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt}

// parallel runs n jobs on `clients` closed-loop workers; each worker
// starts its next job only when the previous one has returned.
func parallel(n int, job func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// collector gathers the per-run results an experiment reports through
// sim.Options.Notify (called concurrently by sim's fan-out).
type collector struct {
	mu  sync.Mutex
	res []sim.Result
}

func (c *collector) notify(r sim.Result) {
	c.mu.Lock()
	c.res = append(c.res, r)
	c.mu.Unlock()
}

func (c *collector) byMode() map[pipeline.Mode]pipeline.Stats {
	out := map[pipeline.Mode]pipeline.Stats{}
	for _, r := range c.res {
		out[r.Mode] = r.Stats
	}
	return out
}

// engineInsts is the guest instructions one engine run of p retires,
// warmup included.
func engineInsts(p workload.Profile) float64 { return float64(p.XInsts * p.Traces) }

// generateAll is the batch workloads' set-up: generating every trace
// program of the seeded profile set (the first thing a cold sweep
// does for each trace).
func generateAll(ps []workload.Profile) (time.Duration, error) {
	t0 := time.Now()
	for _, p := range ps {
		for t := 0; t < p.Traces; t++ {
			if _, err := workload.Generate(p, t); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}

// batchSetup times five set-ups before the measured phase and returns
// the hook that times one more at every calibration-window boundary,
// so the set-up median samples the whole run.
func batchSetup(out *outcome, ps []workload.Profile) (func(), error) {
	out.kern = append(out.kern, kernel(3))
	for r := 0; r < 5; r++ {
		d, err := generateAll(ps)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, d)
	}
	out.kern = append(out.kern, kernel(3))
	return func() {
		d, err := generateAll(ps)
		if err != nil {
			out.fail("set-up: %v", err)
			return
		}
		out.setup = append(out.setup, d)
	}, nil
}

// span is one traced call.
type span struct {
	name  string
	dur   time.Duration
	alloc float64 // bytes the process allocated during the call (traced half only)
}

// phase is one measured stretch of a workload, cut into calibration
// windows.
type phase struct {
	wall, cpu   time.Duration   // totals over the windows, calibration excluded
	kern        []time.Duration // kernel timing at each window boundary
	rt          rtSample        // runtime counters accumulated over the windows
	insts       float64
	reqs        int             // requests or experiment calls completed
	req, simReq []time.Duration // see outcome
	spans       []span
	attempted   int
	traced      bool // spans also carry the process's allocation during each call
}

// allocNow reads the process's allocation counter in a traced phase.
func (ph *phase) allocNow() float64 {
	if !ph.traced {
		return 0
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// window runs one calibration window: work, then a kernel timing,
// then boundary (if any).
func (ph *phase) window(work func(), boundary func()) {
	if len(ph.kern) == 0 {
		ph.kern = append(ph.kern, kernel(3))
	}
	r0, c0, t0 := readRuntime(), cpuTime(), time.Now()
	work()
	ph.wall += time.Since(t0)
	ph.cpu += cpuTime() - c0
	r1 := readRuntime()
	ph.rt.allocBytes += r1.allocBytes - r0.allocBytes
	ph.rt.gcCPU += r1.gcCPU - r0.gcCPU
	ph.rt.totalCPU += r1.totalCPU - r0.totalCPU
	ph.kern = append(ph.kern, kernel(3))
	if boundary != nil {
		boundary()
	}
}

// runPhase repeats sweep, one calibration window each, until the
// sweeps have taken at least d and made at least minCalls calls; sweeps
// are never cut short, so every phase holds whole sweeps.
func runPhase(d time.Duration, minCalls int, traced bool, sweep func(ph *phase), boundary func()) *phase {
	ph := &phase{traced: traced}
	for ph.wall < d || ph.reqs < minCalls {
		ph.window(func() { sweep(ph) }, boundary)
	}
	return ph
}

// fig6Cold runs cold Figure 6 sweeps: after sim.ResetCaches, two
// closed-loop clients call sim.Fig6 once per profile (all four modes),
// in a seeded order.
func (b *bench) fig6Cold() (*outcome, error) {
	ps := profilesFor(b.seed)
	out := &outcome{}
	boundary, err := batchSetup(out, ps)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.seed))
	ref := map[string]string{} // first-sweep digests when none are recorded
	gains := map[string]float64{}
	var mu sync.Mutex
	sweep := func(ph *phase) {
		sim.ResetCaches()
		order := rng.Perm(len(ps))
		parallel(len(order), func(i int) {
			p := ps[order[i]]
			var col collector
			a0, t0 := ph.allocNow(), time.Now()
			rows, err := sim.Fig6(context.Background(), []workload.Profile{p}, sim.Options{Notify: col.notify})
			d := time.Since(t0)
			alloc := ph.allocNow() - a0
			mu.Lock()
			defer mu.Unlock()
			ph.reqs++
			ph.req = append(ph.req, d)
			ph.simReq = append(ph.simReq, d)
			ph.spans = append(ph.spans, span{"sim.Fig6", d, alloc})
			ph.insts += 4 * engineInsts(p)
			ph.attempted++
			if err != nil {
				out.fail("fig6 %s: %v", p.Name, err)
				return
			}
			got := col.byMode()
			bad := len(rows) != 1 || len(got) != 4
			for _, m := range modes {
				st := got[m]
				key := p.Name + "/" + m.String()
				if !binsConserve(&st) || !b.digestOK(ref, key, statsDigest(&st)) {
					bad = true
				}
			}
			if bad {
				out.fail("fig6 %s: Stats differ from the recorded digests", p.Name)
				return
			}
			gains[p.Name] = rows[0].Gain
		})
	}
	return out, b.finish(out, ps, sweep, boundary, func() float64 { return gapPts(gains, paperFig6Gain) })
}

// analysisSweep runs the three guest-analysis experiments per profile,
// as replayd's two workers would run per-workload jobs: sim.Reuse,
// sim.CycleProf and sim.Diff against the cse,sf variant, in a seeded
// order. Probes are attached, so every run executes on the serial
// per-trace path.
func (b *bench) analysisSweep() (*outcome, error) {
	ps := profilesFor(b.seed)
	out := &outcome{}
	boundary, err := batchSetup(out, ps)
	if err != nil {
		return nil, err
	}
	spec, err := api.ParseDiffSpec("cse,sf")
	if err != nil {
		return nil, err
	}
	base := sim.DiffVariant{Label: "baseline", Mode: pipeline.ModeRePLayOpt, HasMode: true}
	vs := sim.DiffVariant{Label: spec.Label, Mode: pipeline.ModeRePLayOpt, HasMode: true,
		ConfigMod: spec.Config.Mod(), Repeats: 1}
	if spec.Label == "" {
		vs.Label = "cse,sf"
	}

	rng := rand.New(rand.NewSource(b.seed))
	ref := map[string]string{}
	removed := map[string]float64{}
	var mu sync.Mutex
	const nExp = 3
	sweep := func(ph *phase) {
		calls := map[string][]rpoCall{}
		order := rng.Perm(len(ps) * nExp)
		parallel(len(order), func(i int) {
			p, exp := ps[order[i]/nExp], order[i]%nExp
			one := []workload.Profile{p}
			var col collector
			o := sim.Options{Notify: col.notify}
			var check func() string
			var name string
			runs := 1.0
			a0, t0 := ph.allocNow(), time.Now()
			var err error
			switch exp {
			case 0:
				name = "sim.Reuse"
				var rep *sim.ReuseReport
				rep, err = sim.Reuse(context.Background(), one, o)
				check = func() string {
					st := col.res[0].Stats
					if r := rep.Rows[0]; r.Report.TotalX86 != st.X86Retired || r.Insts != st.X86Retired {
						return fmt.Sprintf("reuse TotalX86 %d != X86Retired %d", r.Report.TotalX86, st.X86Retired)
					}
					return ""
				}
			case 1:
				name = "sim.CycleProf"
				var rep *sim.CycleReport
				rep, err = sim.CycleProf(context.Background(), one, o)
				check = func() string {
					st := col.res[0].Stats
					if r := rep.Rows[0].Report; r.Cycles != st.Cycles || r.Bins != st.Bins {
						return fmt.Sprintf("cycleprof Cycles %d != Stats.Cycles %d", r.Cycles, st.Cycles)
					}
					return ""
				}
			case 2:
				name = "sim.Diff"
				runs = 2
				var rep *sim.DiffReport
				rep, err = sim.Diff(context.Background(), one, o, base, vs)
				check = func() string {
					if r := rep.Rows[0].Report; r.ResidualUOpsRemoved != 0 || r.ResidualCycles != 0 {
						return fmt.Sprintf("diff residuals %d uops, %d cycles", r.ResidualUOpsRemoved, r.ResidualCycles)
					}
					return ""
				}
			}
			d := time.Since(t0)
			alloc := ph.allocNow() - a0
			mu.Lock()
			defer mu.Unlock()
			ph.reqs++
			ph.req = append(ph.req, d)
			ph.simReq = append(ph.simReq, d)
			ph.spans = append(ph.spans, span{name, d, alloc})
			ph.insts += runs * engineInsts(p)
			ph.attempted++
			if err != nil {
				out.fail("%s %s: %v", name, p.Name, err)
				return
			}
			if len(col.res) != int(runs) {
				out.fail("%s %s: %d runs reported, want %v", name, p.Name, len(col.res), runs)
				return
			}
			if msg := check(); msg != "" {
				out.fail("%s %s: %s", name, p.Name, msg)
				return
			}
			c := rpoCall{name: name, single: runs == 1, removed: map[string]float64{}}
			for _, r := range col.res {
				if st := r.Stats; binsConserve(&st) {
					c.removed[statsDigest(&st)] = 100 * st.UOpReduction()
				}
			}
			calls[p.Name] = append(calls[p.Name], c)
		})
		// Every experiment runs the RPO cell of p unmodified (Diff as its
		// baseline side); it must equal fig6-cold's RPO cell. Without a
		// recorded digest, the reference is the first single-run
		// experiment's cell (a Diff has two RPO runs and cannot say which
		// is its baseline).
		for _, p := range ps {
			key := p.Name + "/" + pipeline.ModeRePLayOpt.String()
			want := ref[key]
			if b.digests != nil {
				want = b.digests[key]
			}
			for _, c := range calls[p.Name] {
				if want == "" && c.single {
					for d := range c.removed {
						want, ref[key] = d, d
					}
				}
			}
			for _, c := range calls[p.Name] {
				if v, ok := c.removed[want]; ok {
					removed[p.Name] = v
				} else {
					out.fail("%s %s: RPO Stats differ from fig6-cold's RPO cell", c.name, p.Name)
				}
			}
		}
	}
	return out, b.finish(out, ps, sweep, boundary, func() float64 { return gapPts(removed, paperUOpsRemoved) })
}

// rpoCall is one analysis call's RPO cells: digest -> micro-op
// reduction in percent.
type rpoCall struct {
	name    string
	single  bool // one run, so its only cell is the plain RPO cell
	removed map[string]float64
}

// binsConserve checks that the fetch-cycle bins partition the cycles.
func binsConserve(s *pipeline.Stats) bool {
	var sum uint64
	for _, v := range s.Bins {
		sum += v
	}
	return sum == s.Cycles
}

// digestOK compares a cell's digest with the recorded one for this
// seed; for a seed without recorded digests, with the first digest this
// run saw for the cell. ref is guarded by the caller.
func (b *bench) digestOK(ref map[string]string, key, got string) bool {
	if b.digests != nil {
		return b.digests[key] == got
	}
	want, ok := ref[key]
	if !ok {
		ref[key] = got
		return true
	}
	return want == got
}

// finish runs a batch workload's measured phase (two halves and the
// layer suite in a traced run) and fills the outcome.
func (b *bench) finish(out *outcome, ps []workload.Profile, sweep func(*phase),
	boundary func(), gap func() float64) error {
	if !b.traced {
		ph := runPhase(b.seconds, minBatchCalls, false, sweep, boundary)
		out.fromPhase(ph)
		out.gap = gap()
		return nil
	}
	a := runPhase(b.seconds/2, 1, false, sweep, boundary)
	tr := runPhase(b.seconds/2, 1, true, sweep, boundary)
	out.fromPhase(a)
	out.gap = gap()
	return b.layerReport(out, ps, a, tr, nil)
}

func (o *outcome) fromPhase(ph *phase) {
	o.ph, o.rssMB = ph, maxRSSMB()
	o.reqQ, o.simQ = tailQ(len(ph.req)), tailQ(len(ph.simReq))
	o.attempted += ph.attempted
}

// digestFile maps a seed to its fig6-cold cell digests.
type digestFile map[string]map[string]string

func loadDigests(path string, seed int64) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read digests: %w", err)
	}
	var df digestFile
	if err := json.Unmarshal(raw, &df); err != nil {
		return nil, fmt.Errorf("parse digests: %w", err)
	}
	return df[seedString(seed)], nil
}

// recordDigests runs one cold Figure 6 sweep per recorded seed and
// writes every (profile, mode) Stats digest.
func recordDigests(path string) error {
	df := digestFile{}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		sim.ResetCaches()
		var col collector
		if _, err := sim.Fig6(context.Background(), profilesFor(seed), sim.Options{Notify: col.notify}); err != nil {
			return err
		}
		m := map[string]string{}
		for _, r := range col.res {
			m[r.Workload+"/"+r.Mode.String()] = statsDigest(&r.Stats)
		}
		df[seedString(seed)] = m
	}
	raw, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
