package sim

import (
	"context"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

const statsDigestFile = "testdata/stats_digests.json"

// TestStatsDigests pins the measured pipeline.Stats of every profile
// under every mode at a small budget, so a change to the engine's
// consumption path or any model detail that moves a counter is caught
// even where the conservation tests only compare sums. Each cell runs
// three ways that must all reproduce the golden hash: through the
// capture cache at the default parallelism, live-interpreted with
// DisableCache, and through the capture cache again with one
// simulation goroutine (the serial per-trace path). Run with -update
// to rewrite the golden file after an intended change.
func TestStatsDigests(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	ctx := context.Background()
	modes := []pipeline.Mode{pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt}
	sweep := func(o Options) map[string]string {
		t.Helper()
		o.MaxInsts = digestBudget
		got := map[string]string{}
		for _, p := range workload.Profiles {
			for _, m := range modes {
				res, err := RunWorkload(ctx, p, m, o)
				if err != nil {
					t.Fatal(err)
				}
				got[p.Name+"/"+m.String()] = digestOf(t, res.Stats)
			}
		}
		return got
	}

	got := sweep(Options{})
	ways := map[string]map[string]string{"DisableCache": sweep(Options{DisableCache: true})}
	// A fresh memo, so the serial sweep executes instead of reading the
	// first sweep's results back.
	ResetCaches()
	defer SetParallelism(SetParallelism(1))
	ways["parallelism 1"] = sweep(Options{})

	checkGolden(t, statsDigestFile, got)
	for name, w := range ways {
		for k, d := range got {
			if w[k] != d {
				t.Errorf("%s %s: digest %s, cached sweep %s", k, name, w[k], d)
			}
		}
	}
}
