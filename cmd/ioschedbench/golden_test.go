//go:build linux || darwin

package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTable1Golden pins "-experiment table1" byte for byte: the
// registry header, Table I, and the Section V-B ratio block its footer
// carries.
func TestTable1Golden(t *testing.T) {
	stdout, _ := newCLI(t).must("-experiment", "table1")
	checkGolden(t, "testdata/table1/golden.txt", stdout)
}

// TestTraceGolden pins the trace subcommand's output — task table,
// per-device schedule, Gantt chart and hardware verification — for one
// system under the static heuristic and under the GA.
func TestTraceGolden(t *testing.T) {
	for _, method := range []string{"static", "ga"} {
		t.Run(method, func(t *testing.T) {
			stdout, _ := newCLI(t).must("trace", "-method", method, "-u", "0.5", "-seed", "3")
			checkGolden(t, "testdata/trace/"+method+"-u0.5-seed3.txt", stdout)
		})
	}
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (re-run with -update after intentional changes):\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}
