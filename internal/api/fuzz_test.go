package api

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// fuzzMaxInsts caps each accepted input's simulated budget so one fuzz
// execution stays in the low milliseconds.
const fuzzMaxInsts = 3000

// FuzzRunRequest drives the request surface the way replayd's run
// handler does: decode with unknown fields rejected, then Validate.
// Every request Validate accepts must then simulate without a panic or
// an error — a config the engine cannot run is a validation gap, and a
// run that hits its deadline is a livelock.
func FuzzRunRequest(f *testing.F) {
	// Inputs that once crashed or livelocked the engine, or reached it
	// with a value it could not run.
	f.Add([]byte(`{"experiment":"cell","config":{"window_size":1}}`))
	f.Add([]byte(`{"experiment":"cell","config":{"width":1}}`))
	f.Add([]byte(`{"experiment":"cell","config":{"width":600}}`))
	f.Add([]byte(`{"experiment":"cell","config":{"opt_pipe_depth":1000000000}}`))
	f.Add([]byte(`{"experiment":"cell","config":{"max_frame_uops":100000}}`))
	f.Add([]byte(`{"experiment":"cell","warmup_frac":1.5}`))
	f.Add([]byte(`{"experiment":"fig6","insts":-5}`))

	// Valid requests as mutation bases.
	f.Add([]byte(`{"experiment":"cell","workloads":["gzip"],"mode":"IC","insts":800,"warmup_frac":0.25}`))
	f.Add([]byte(`{"experiment":"cell","mode":"tc","config":{"opt_scope":"block","disable_opts":["cse","sf"],"width":4,"window_size":64}}`))
	f.Add([]byte(`{"experiment":"diff","diff":{"mode":"RP","repeats":2,"config":{"disable_opts":["ra"]}}}`))
	f.Add([]byte(`{"experiment":"reuse","config":{"frame_cache_uops":256,"opt_cycles_per_uop":3}}`))
	f.Add([]byte(`{"experiment":"cell","bogus":1}`))

	gzip, err := workload.ByName("gzip")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RunRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		c := req.Canonical()
		mode, err := ParseMode(c.Mode)
		if err != nil {
			t.Fatalf("validated request has unparsable mode %q: %v", c.Mode, err)
		}
		insts := fuzzMaxInsts
		if c.Insts > 0 && c.Insts < insts {
			insts = c.Insts
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_, err = sim.RunWorkload(ctx, gzip, mode, sim.Options{
			ConfigMod:    c.Config.Mod(),
			WarmupFrac:   c.WarmupFrac,
			MaxInsts:     insts,
			DisableCache: true,
		})
		if err != nil {
			t.Fatalf("validated request %s failed to simulate: %v", data, err)
		}
	})
}
