package api

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// TestValidateConfigRanges: numeric overrides are range-checked and the
// error names the offending field; in-range overrides pass.
func TestValidateConfigRanges(t *testing.T) {
	for _, tc := range []struct {
		req   RunRequest
		field string // "" = valid
	}{
		{RunRequest{Experiment: "fig6", Config: &ConfigOverrides{WindowSize: 1}}, "window_size"},
		{RunRequest{Experiment: "fig6", Config: &ConfigOverrides{WindowSize: 16, Width: 32}}, "window_size"},
		{RunRequest{Experiment: "fig6", Config: &ConfigOverrides{Width: 600}}, "width"},
		{RunRequest{Experiment: "fig6", Config: &ConfigOverrides{Width: -1}}, "width"},
		{RunRequest{Experiment: "fig6", Config: &ConfigOverrides{FrameCacheUOps: -5}}, "frame_cache_uops"},
		{RunRequest{Experiment: "fig6", WarmupFrac: 1}, "warmup_frac"},
		{RunRequest{Experiment: "fig6", WarmupFrac: -0.1}, "warmup_frac"},
		{RunRequest{Experiment: "diff", Diff: &DiffSpec{Config: &ConfigOverrides{WindowSize: 4}}}, "window_size"},
		{RunRequest{Experiment: "fig6", Config: &ConfigOverrides{WindowSize: 8, Width: 8}}, ""},
		{RunRequest{Experiment: "fig6", Config: &ConfigOverrides{Width: 4}}, ""},
		{RunRequest{Experiment: "fig6", WarmupFrac: 0.5}, ""},
	} {
		err := tc.req.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", tc.req, err)
		case tc.field != "" && err == nil:
			t.Errorf("%+v: accepted, want an error naming %s", tc.req, tc.field)
		case tc.field != "" && !strings.Contains(err.Error(), tc.field):
			t.Errorf("%+v: error %q does not name %s", tc.req, err, tc.field)
		}
	}
}

// TestValidateConfigBounds: every numeric override is bounded above by
// the engine's limits (inclusive), and a negative insts is rejected.
func TestValidateConfigBounds(t *testing.T) {
	cfg := func(c ConfigOverrides) RunRequest { return RunRequest{Experiment: "fig6", Config: &c} }
	for _, tc := range []struct {
		req   RunRequest
		field string // "" = valid
	}{
		{cfg(ConfigOverrides{Width: pipeline.MaxWidth}), ""},
		{cfg(ConfigOverrides{Width: pipeline.MaxWidth + 1}), "width"},
		{cfg(ConfigOverrides{WindowSize: pipeline.MaxWindowSize}), ""},
		{cfg(ConfigOverrides{WindowSize: pipeline.MaxWindowSize + 1}), "window_size"},
		{cfg(ConfigOverrides{FrameCacheUOps: pipeline.MaxFrameCacheUOps}), ""},
		{cfg(ConfigOverrides{FrameCacheUOps: pipeline.MaxFrameCacheUOps + 1}), "frame_cache_uops"},
		{cfg(ConfigOverrides{MaxFrameUOps: pipeline.MaxFrameUOps}), ""},
		{cfg(ConfigOverrides{MaxFrameUOps: pipeline.MaxFrameUOps + 1}), "max_frame_uops"},
		{cfg(ConfigOverrides{OptCyclesPerUOp: pipeline.MaxOptCyclesPerUOp}), ""},
		{cfg(ConfigOverrides{OptCyclesPerUOp: pipeline.MaxOptCyclesPerUOp + 1}), "opt_cycles_per_uop"},
		{cfg(ConfigOverrides{OptPipeDepth: pipeline.MaxOptPipeDepth}), ""},
		{cfg(ConfigOverrides{OptPipeDepth: 1_000_000_000}), "opt_pipe_depth"},
		{RunRequest{Experiment: "diff", Diff: &DiffSpec{Config: &ConfigOverrides{OptPipeDepth: 1 << 24}}}, "opt_pipe_depth"},
		{RunRequest{Experiment: "fig6", Insts: -1}, "insts"},
		{RunRequest{Experiment: "fig6", Insts: 20_000}, ""},
	} {
		err := tc.req.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", tc.req.Config, err)
		case tc.field != "" && err == nil:
			t.Errorf("%+v: accepted, want an error naming %s", tc.req.Config, tc.field)
		case tc.field != "" && !strings.Contains(err.Error(), tc.field):
			t.Errorf("%+v: error %q does not name %s", tc.req.Config, err, tc.field)
		}
	}
}

// TestDiffRepeatsCapped: a diff's repeat count is bounded, so a request
// cannot make the simulator allocate and run an unbounded number of
// per-side runs. Both the wire spec and the -vs grammar enforce it.
func TestDiffRepeatsCapped(t *testing.T) {
	diff := func(n int) RunRequest {
		return RunRequest{Experiment: "diff", Diff: &DiffSpec{Repeats: n}}
	}
	if err := diff(MaxDiffRepeats).Validate(); err != nil {
		t.Errorf("repeats %d: %v", MaxDiffRepeats, err)
	}
	for _, n := range []int{MaxDiffRepeats + 1, 1_000_000_000} {
		err := diff(n).Validate()
		if err == nil || !strings.Contains(err.Error(), "repeats") {
			t.Errorf("repeats %d: error %v, want one naming repeats", n, err)
		}
	}
	if _, err := ParseDiffSpec(fmt.Sprintf("cse,repeats=%d", MaxDiffRepeats)); err != nil {
		t.Errorf("-vs repeats=%d: %v", MaxDiffRepeats, err)
	}
	if _, err := ParseDiffSpec(fmt.Sprintf("cse,repeats=%d", MaxDiffRepeats+1)); err == nil {
		t.Errorf("-vs repeats=%d accepted", MaxDiffRepeats+1)
	}
}
