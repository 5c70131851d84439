package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/xtrace"
)

const (
	readInsts     = 40_000  // read-set instruction budget
	uploadInsts   = 100_000 // instructions per uploaded trace
	readsPerWrite = 200     // each client uploads and runs a trace after this many reads
	// poolAhead is how many unused uploads the pool holds when a
	// calibration window starts: more than the 30 or so writes a
	// 2-second window makes on the 2-CPU reference host. A client that
	// runs the pool dry generates its next trace inline.
	poolAhead = 60
	// setups is how many times a run sets the server up; setup_s is
	// their median.
	setups = 5
)

// readSet is the memo-hit request mix: every cell of the 14 workloads x
// 4 modes plus the summary and fig6 experiments, all at readInsts.
func readSet() [][]byte {
	var reqs []api.RunRequest
	for _, p := range profilesFor(defaultSeed) {
		for _, m := range modes {
			reqs = append(reqs, api.RunRequest{Experiment: api.ExpCell, Workloads: []string{p.Name},
				Mode: m.String(), Insts: readInsts})
		}
	}
	reqs = append(reqs, api.RunRequest{Experiment: api.ExpSummary, Insts: readInsts},
		api.RunRequest{Experiment: api.ExpFig6, Insts: readInsts})
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			panic("perfbench: marshal request: " + err.Error())
		}
		out[i] = b
	}
	return out
}

// live is an in-process replayd behind a loopback listener.
type live struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer(spool string) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &live{
		srv:  server.New(server.Config{Workers: clients, SpoolDir: spool}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	l.hs = &http.Server{Handler: l.srv.Handler()}
	go func() {
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
		close(l.done)
	}()
	return l, nil
}

func (l *live) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = l.hs.Shutdown(ctx)
	_ = l.srv.Shutdown(ctx)
	<-l.done
}

var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: clients,
	MaxConnsPerHost:     clients,
}}

// post sends one request and returns its status and body.
func post(url, ctype string, body io.Reader) (int, []byte, error) {
	resp, err := httpClient.Post(url, ctype, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobReply is the part of a /v1/run reply the checks read.
type jobReply struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func runRequest(url string, body []byte) (jobReply, error) {
	var jr jobReply
	status, b, err := post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return jr, err
	}
	if status != http.StatusOK {
		return jr, fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(b)))
	}
	if err := json.Unmarshal(b, &jr); err != nil {
		return jr, err
	}
	if jr.State != api.StateDone {
		return jr, fmt.Errorf("job %s: %s", jr.State, jr.Error)
	}
	return jr, nil
}

// tracePool holds the generated uploads as files, written by a child
// process so that neither the bodies nor the generator's garbage count
// towards this process's resident memory.
type tracePool struct {
	dir  string
	seed int64
	next atomic.Int64
	n    int // uploads generated so far
}

func (tp *tracePool) path(k int) string { return filepath.Join(tp.dir, fmt.Sprintf("t%05d.xut", k)) }

// genUploads writes uploads [from, to) for seed into dir. Upload k is
// trace 0 of profile k mod 14, with the generator seed perturbed by the
// workload seed and k, so no two uploads repeat.
func genUploads(dir string, seed int64, from, to int) error {
	ps := profilesFor(seed)
	var mu sync.Mutex
	var first error
	parallel(to-from, func(i int) {
		k := from + i
		p := ps[k%len(ps)]
		p.Seed += int64(k+1) * uploadStride
		b, err := genTrace(fmt.Sprintf("perfbench-%d-%d-%s", seed, k, p.Name), p, uploadInsts)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("t%05d.xut", k)), b, 0o644)
		}
		if err != nil {
			mu.Lock()
			first = err
			mu.Unlock()
		}
	})
	return first
}

// gen runs genUploads for [from, to) in a child process and waits for it.
func (tp *tracePool) gen(from, to int) error {
	cmd := exec.Command(os.Args[0], "-gen-uploads", tp.dir, "-seed", strconv.FormatInt(tp.seed, 10),
		"-from", strconv.Itoa(from), "-to", strconv.Itoa(to))
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generate uploads %d..%d: %w", from, to, err)
	}
	return nil
}

// topUp generates uploads, outside any measured window, until at
// least poolAhead are unused.
func (tp *tracePool) topUp() error {
	from, to := tp.n, int(tp.next.Load())+poolAhead
	if to <= from {
		return nil
	}
	tp.n = to
	return tp.gen(from, to)
}

// take returns the next unused upload, generating it when the pool is
// dry.
func (tp *tracePool) take() (int, error) {
	k := int(tp.next.Add(1)) - 1
	if k >= tp.n {
		if err := tp.gen(k, k+1); err != nil {
			return k, err
		}
	}
	return k, nil
}

// write is one upload-and-run, kept for verification after the phase.
type write struct {
	k     int
	stats pipeline.Stats
}

// replaydMix serves a closed loop of two clients from a fresh
// in-process replayd: memo-hit reads in seeded order, and after every
// readsPerWrite reads an upload of a never-seen trace followed by a run
// of it.
func (b *bench) replaydMix() (*outcome, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(tmpRoot, "replayd-mix-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	pool := &tracePool{dir: work, seed: b.seed}
	if err := pool.topUp(); err != nil {
		return nil, err
	}

	reads := readSet()
	warm := make([]json.RawMessage, len(reads))
	out := &outcome{}
	var l *live
	for r := 0; r < setups; r++ {
		if l != nil {
			l.stop()
		}
		sim.ResetCaches()
		spool := filepath.Join(work, fmt.Sprintf("spool%d", r))
		out.kern = append(out.kern, kernel(3))
		t0 := time.Now()
		if l, err = startServer(spool); err != nil {
			return nil, err
		}
		var werr error
		var wmu sync.Mutex
		parallel(len(reads), func(i int) {
			jr, err := runRequest(l.url, reads[i])
			wmu.Lock()
			defer wmu.Unlock()
			if err != nil {
				werr = fmt.Errorf("warm-up request %s: %w", reads[i], err)
				return
			}
			warm[i] = jr.Result
		})
		out.setup = append(out.setup, time.Since(t0))
		if werr != nil {
			l.stop()
			return nil, werr
		}
	}
	defer l.stop()

	var fig6 api.RunResponse
	if err := json.Unmarshal(warm[len(warm)-1], &fig6); err != nil {
		return nil, err
	}
	gains := map[string]float64{}
	for _, r := range fig6.Fig6 {
		gains[r.Workload] = r.Gain
	}
	out.gap = gapPts(gains, paperFig6Gain)

	m := &mix{b: b, l: l, pool: pool, reads: reads, warm: warm, out: out}
	if !b.traced {
		ph := m.phase(b.seconds, false)
		out.fromPhase(ph)
		m.report()
	} else {
		a := m.phase(b.seconds/2, false)
		tr := m.phase(b.seconds/2, true)
		out.fromPhase(a)
		m.report()
		if err := b.layerReport(out, profilesFor(b.seed), a, tr, m); err != nil {
			return nil, err
		}
	}
	m.verify()
	return out, nil
}

// mix is the state of one replayd-mix run.
type mix struct {
	b     *bench
	l     *live
	pool  *tracePool
	reads [][]byte
	warm  []json.RawMessage
	out   *outcome

	mu      sync.Mutex
	writes  []write
	hits    []time.Duration
	uploads []time.Duration
	runs    []time.Duration
	cycle   int // client cycles started, seeds each cycle's read order
}

// calWindow is the length of one replayd-mix calibration window.
const calWindow = 2 * time.Second

// phase runs both clients until d has passed, in calibration windows;
// each client finishes its current cycle of reads and one write before
// a window closes, so every phase holds whole cycles.
func (m *mix) phase(d time.Duration, traced bool) *phase {
	ph := &phase{traced: traced}
	for ph.wall < d {
		ph.window(func() {
			t0 := time.Now()
			var wg sync.WaitGroup
			wg.Add(clients)
			for c := 0; c < clients; c++ {
				go func() {
					defer wg.Done()
					for time.Since(t0) < calWindow {
						m.clientCycle(ph)
					}
				}()
			}
			wg.Wait()
		}, func() {
			if err := m.pool.topUp(); err != nil {
				m.fail("generate uploads: %v", err)
			}
		})
	}
	return ph
}

func (m *mix) record(ph *phase, class string, d time.Duration, a0 float64, into *[]time.Duration) {
	alloc := ph.allocNow() - a0
	m.mu.Lock()
	defer m.mu.Unlock()
	ph.reqs++
	if into == &m.hits {
		ph.req = append(ph.req, d)
	}
	ph.spans = append(ph.spans, span{class, d, alloc})
	ph.attempted++
	*into = append(*into, d)
}

func (m *mix) fail(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.out.fail(format, args...)
}

// clientCycle is readsPerWrite memo-hit reads, then one upload of a
// fresh trace and one run of it.
func (m *mix) clientCycle(ph *phase) {
	m.mu.Lock()
	rng := rand.New(rand.NewSource(m.b.seed*1_000_003 + int64(m.cycle)))
	m.cycle++
	m.mu.Unlock()
	for i := 0; i < readsPerWrite; i++ {
		r := rng.Intn(len(m.reads))
		a0, t0 := ph.allocNow(), time.Now()
		jr, err := runRequest(m.l.url, m.reads[r])
		m.record(ph, "POST /v1/run (hit)", time.Since(t0), a0, &m.hits)
		if err != nil {
			m.fail("read %s: %v", m.reads[r], err)
		} else if !bytes.Equal(jr.Result, m.warm[r]) {
			m.fail("read %s: rows differ from the warm-up response", m.reads[r])
		}
	}

	k, err := m.pool.take()
	if err != nil {
		m.fail("generate upload %d: %v", k, err)
		return
	}
	f, err := os.Open(m.pool.path(k))
	if err != nil {
		m.fail("open upload %d: %v", k, err)
		return
	}
	a0, t0 := ph.allocNow(), time.Now()
	status, body, err := post(m.l.url+"/v1/traces", "application/octet-stream", f)
	up := time.Since(t0)
	f.Close()
	m.record(ph, "POST /v1/traces", up, a0, &m.uploads)
	var info struct {
		ID        string `json:"id"`
		Duplicate bool   `json:"duplicate"`
	}
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err == nil {
		err = json.Unmarshal(body, &info)
	}
	if err == nil && info.Duplicate {
		err = fmt.Errorf("trace %s deduplicated", info.ID)
	}
	if err != nil {
		m.fail("upload %d: %v", k, err)
		return
	}

	req, _ := json.Marshal(api.RunRequest{XTrace: info.ID})
	a0, t0 = ph.allocNow(), time.Now()
	jr, err := runRequest(m.l.url, req)
	run := time.Since(t0)
	m.record(ph, "POST /v1/run (trace)", run, a0, &m.runs)
	var res api.RunResponse
	if err == nil {
		err = json.Unmarshal(jr.Result, &res)
	}
	if err == nil && len(res.Cells) != 1 {
		err = fmt.Errorf("%d cells in reply", len(res.Cells))
	}
	if err != nil {
		m.fail("run trace %d: %v", k, err)
		return
	}
	m.mu.Lock()
	ph.simReq = append(ph.simReq, up+run)
	ph.insts += uploadInsts
	m.writes = append(m.writes, write{k: k, stats: res.Cells[0].Stats})
	m.mu.Unlock()
}

// report adds replayd-mix's per-class latencies to the printed table.
func (m *mix) report() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.out.extra = append(m.out.extra,
		named{"hit_p50_ms", "ms (raw)", ms(quantile(m.hits, 0.5))},
		named{"hit_p99_ms", "ms (raw)", ms(quantile(m.hits, 0.99))},
		named{"upload_p50_ms", "ms (raw)", ms(quantile(m.uploads, 0.5))},
		named{"upload_p90_ms", "ms (raw)", ms(quantile(m.uploads, 0.9))},
		named{"trace_run_p50_ms", "ms (raw)", ms(quantile(m.runs, 0.5))},
		named{"trace_run_p90_ms", "ms (raw)", ms(quantile(m.runs, 0.9))},
		named{"hits", "count", float64(len(m.hits))},
		named{"uploads", "count", float64(len(m.uploads))},
	)
}

// verify re-simulates every uploaded trace in process with sim.RunExternal
// (no memo) and checks the served Stats against it.
func (m *mix) verify() {
	parallel(len(m.writes), func(i int) {
		w := m.writes[i]
		want, err := expectedStats(m.pool.path(w.k))
		if err != nil {
			m.fail("re-simulate upload %d: %v", w.k, err)
			return
		}
		if statsDigest(&want) != statsDigest(&w.stats) {
			m.fail("trace run %d: served Stats differ from sim.RunExternal", w.k)
		}
	})
}

func expectedStats(path string) (pipeline.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return pipeline.Stats{}, err
	}
	defer f.Close()
	t, err := xtrace.Decode(f, xtrace.Limits{})
	if err != nil {
		return pipeline.Stats{}, err
	}
	slots, err := t.Slots()
	if err != nil {
		return pipeline.Stats{}, err
	}
	res, err := sim.RunExternal(context.Background(),
		sim.ExternalRun{Name: t.Header.Name, Slots: slots, Insts: int(t.Header.Insts)},
		pipeline.ModeRePLayOpt, sim.Options{})
	return res.Stats, err
}
