package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestTraceIndexRange: an index outside the profile's trace range is
// refused on both the capture and the export path, with the range named.
func TestTraceIndexRange(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("[0, %d)", p.Traces)
	export := filepath.Join(t.TempDir(), "t.xut")
	for _, idx := range []int{-1, p.Traces, p.Traces + 4} {
		for _, out := range []string{"", export} {
			err := run(p.Name, idx, 1000, "", out, "binary", "", false)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("-trace %d (export %q): err %v, want the range %s named", idx, out, err, want)
			}
		}
	}
	if err := run(p.Name, p.Traces-1, 1000, "", export, "binary", "", false); err != nil {
		t.Errorf("-trace %d export: %v", p.Traces-1, err)
	}
}
