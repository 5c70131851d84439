package api

import (
	"strings"
	"testing"
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
