package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cycleprof"
	"repro/internal/diff"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite the golden digest files under testdata from the current code")

const (
	digestFile   = "testdata/analysis_digests.json"
	digestBudget = 20_000
)

// digestOf hashes the JSON encoding of an analysis report.
func digestOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cseSF is the "cse,sf" diff variant: CSE and store forwarding off.
func cseSF(c *pipeline.Config) {
	c.OptOptions.CSE = false
	c.OptOptions.SF = false
}

// TestAnalysisDigests pins the full output of the four guest analyses
// — reuse, cycleprof, per-pass attribution and the baseline-vs-cse,sf
// diff — for every profile, not just the sums the conservation tests
// check: a changed loop row, Nest, Tail or row order changes a digest.
// Run with -update to rewrite the golden file after an intended change.
//
// The together subtest attaches reuse, cycleprof, diff and attribution
// telemetry to one engine: each collector's snapshot must be
// byte-identical to a run with that collector alone, and the
// simulation results must not move.
func TestAnalysisDigests(t *testing.T) {
	t.Run("golden", goldenDigests)
	t.Run("together", analysesTogether)
}

func goldenDigests(t *testing.T) {
	ctx := context.Background()
	o := Options{MaxInsts: digestBudget}
	got := map[string]string{}

	rrep, err := Reuse(ctx, workload.Profiles, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rrep.Rows {
		got["reuse/"+r.Workload] = digestOf(t, r)
	}
	got["reuse/subset"] = digestOf(t, rrep.Subset)

	crep, err := CycleProf(ctx, workload.Profiles, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range crep.Rows {
		got["cycleprof/"+r.Workload] = digestOf(t, r)
	}

	arows, err := Attribution(ctx, workload.Profiles, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range arows {
		got["attribution/"+r.Workload] = digestOf(t, r)
	}

	drep, err := Diff(ctx, workload.Profiles, o, DiffVariant{},
		DiffVariant{Label: "cse,sf", ConfigMod: cseSF})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range drep.Rows {
		got["diff/"+r.Workload] = digestOf(t, r)
	}

	checkGolden(t, digestFile, got)
}

// checkGolden compares digests against a golden file, or rewrites the
// file under -update.
func checkGolden(t *testing.T, file string, got map[string]string) {
	t.Helper()
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(data, enc) {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for k, d := range got {
		if want[k] != d {
			t.Errorf("%s: digest %s, golden %s", k, d, want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: in the golden file but not produced", k)
		}
	}
}

func analysesTogether(t *testing.T) {
	ctx := context.Background()
	run := func(p workload.Profile, o Options) pipeline.Stats {
		t.Helper()
		o.MaxInsts = digestBudget
		res, err := RunWorkload(ctx, p, pipeline.ModeRePLayOpt, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	js := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, p := range workload.Profiles {
		attr := func() *telemetry.Collector { return telemetry.New(telemetry.Config{Attribution: true}) }
		tel, r, c, d := attr(), reuse.NewCollector(), cycleprof.NewCollector(), diff.NewCollector()
		st := run(p, Options{Telemetry: tel, Reuse: r, CycleProf: c, Diff: d})

		tel1, r1, c1, d1 := attr(), reuse.NewCollector(), cycleprof.NewCollector(), diff.NewCollector()
		alone := []struct {
			name          string
			stats         pipeline.Stats
			shared, alone any
		}{
			{"attribution", run(p, Options{Telemetry: tel1}), tel.AttributionSnapshot(), tel1.AttributionSnapshot()},
			{"reuse", run(p, Options{Reuse: r1}), r.Snapshot(), r1.Snapshot()},
			{"cycleprof", run(p, Options{CycleProf: c1}), c.Snapshot(), c1.Snapshot()},
			{"diff", run(p, Options{Diff: d1}), d.Snapshot(), d1.Snapshot()},
		}
		for _, a := range alone {
			if a.stats != st {
				t.Errorf("%s/%s: stats differ with every analysis attached", p.Name, a.name)
			}
			if got, want := js(a.shared), js(a.alone); got != want {
				t.Errorf("%s/%s: snapshot with every analysis attached differs from alone:\n together: %.300s\n alone:    %.300s",
					p.Name, a.name, got, want)
			}
		}
	}
}
