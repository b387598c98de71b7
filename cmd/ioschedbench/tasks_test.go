//go:build linux || darwin

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/shard"
)

// serveLines runs the tasks loop in process over the given lines and
// returns its replies.
func serveLines(t *testing.T, lines ...string) []string {
	t.Helper()
	var out bytes.Buffer
	err := dispatch.ServeTasks(strings.NewReader(strings.Join(lines, "\n")+"\n"), &out, func(args []string) error {
		return runTask(args, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
}

// regularFiles lists the regular files under dir.
func regularFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// tinyRun is a fig5 run small enough to evaluate in a fuzz iteration.
var tinyRun = []string{"-experiment", "fig5", "-systems", "1", "-gapop", "2", "-gagens", "1"}

func taskLine(args ...string) string {
	line, _ := json.Marshal(append(append([]string{}, tinyRun...), args...))
	return string(line)
}

// TestTasksRejectNonTaskLines: a task line must write its cell file and
// nothing else. Render tasks, -csv, a missing -out and stray arguments
// get error replies, write no file, and the loop answers the next line.
func TestTasksRejectNonTaskLines(t *testing.T) {
	t.Chdir(t.TempDir())
	t.Setenv("IOSCHEDBENCH_CACHE_DIR", "")
	replies := serveLines(t,
		taskLine(),
		taskLine("-shards", "2"),
		taskLine("-csv", "csv", "-out", "x.json"),
		taskLine("-out", "x.json", "stray"),
		taskLine("-h"),
		taskLine("-shards", "2", "-out", "ok.json"),
	)
	want := []string{
		`{"error":"a task writes a cell file: -out is required"}`,
		`{"error":"a task writes a cell file: -out is required"}`,
		`{"error":"-csv renders; a task only writes its cell file"}`,
		`{"error":"unexpected arguments [\"stray\"]"}`,
		`{"error":"flag: help requested"}`,
		`{"ok":true}`,
	}
	if strings.Join(replies, "\n") != strings.Join(want, "\n") {
		t.Errorf("replies:\n%s\nwant:\n%s", strings.Join(replies, "\n"), strings.Join(want, "\n"))
	}
	if files := regularFiles(t, "."); len(files) != 1 || files[0] != "ok.json" {
		t.Errorf("files written: %v, want only ok.json", files)
	}
}

// TestTasksMatchOneShot runs tasks A, B, A through one warm CLI child —
// A with a cell cache, B and the second A without — and requires every
// file to equal, byte for byte, the one-shot CLI run of the same
// arguments, and B to leave the cache untouched.
func TestTasksMatchOneShot(t *testing.T) {
	c := newCLI(t)
	cache := c.path("cache")
	w := &dispatch.LocalProcWorker{Binary: c.path("ioschedbench"), Env: []string{cliEnv + "=1"}}
	defer w.Release()
	spec := dispatch.Spec{Selection: experiment.ExpAll, Shards: 2,
		Params: experiment.ShardParams{Seed: 1, Systems: 2, GAPopulation: 4, GAGenerations: 2}}
	var entries []int
	for i, st := range []struct {
		index int
		extra []string
	}{
		{0, []string{"-cache-dir", cache}},
		{1, nil},
		{0, nil},
	} {
		w.ExtraArgs = st.extra
		warm := dispatch.Task{Spec: spec, Index: st.index, Out: c.path("warm.json")}
		if err := w.Run(context.Background(), warm); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		entries = append(entries, len(regularFiles(t, cache)))
		args, err := spec.WorkerArgs(st.index)
		if err != nil {
			t.Fatal(err)
		}
		c.must(append(append(args, "-out", "oneshot.json"), st.extra...)...)
		if got, want := c.read(warm.Out), c.read(c.path("oneshot.json")); got != want {
			t.Errorf("task %d: warm file differs from the one-shot run's", i)
		}
	}
	if entries[0] == 0 || entries[1] != entries[0] || entries[2] != entries[0] {
		t.Errorf("cache entries after each task = %v: only the first task may deposit", entries)
	}
}

// costlyTask reports whether a fuzz line is a well-formed task too big
// or too far-reaching to evaluate in a fuzz iteration: one that would
// compute beyond a tiny grid, write outside the working directory, use a
// cell cache or measure the host. Lines the loop rejects before running
// are never costly.
func costlyTask(line string) bool {
	var args []string
	if json.Unmarshal([]byte(line), &args) != nil || args == nil {
		return false
	}
	a, err := parseTask(args, true)
	if err != nil {
		return false
	}
	p, err := a.rf.shardParams()
	if err != nil {
		return false
	}
	in := func(v, lo, hi int) bool { return lo <= v && v <= hi }
	return p.PaperScale || !in(p.Systems, 1, 2) || !in(p.GAPopulation, 2, 4) || !in(p.GAGenerations, 1, 2) ||
		p.AblationU > 1 || !in(*a.parallel, -1, 4) ||
		!filepath.IsLocal(*a.out) || a.cf.resolvedDir() != "" ||
		!experiment.SelectionReproducible(*a.rf.which)
}

// FuzzTaskLine throws arbitrary lines at the tasks loop, each followed
// by a well-formed task. A line the loop rejects must get an error
// reply and write no file; an accepted line must leave its cell file;
// and the loop must answer the following task either way. The seeds
// under testdata/fuzz/FuzzTaskLine are bad JSON, a non-string element,
// a task without -out, a render task, a -csv task, a cell batch and a
// batch naming more cells than shard.MaxCells.
//
// The loop's own handling of a line — reading it, decoding the JSON
// argv, parsing the flags and any -cells spec, replying — allocates no
// more than a fixed multiple of the line's length plus a constant that
// covers a spec of shard.MaxCells cells. Computing the task's cells is
// bounded by costlyTask, not by the line, so it is measured apart.
func FuzzTaskLine(f *testing.F) {
	next := taskLine("-shards", "3", "-shard-index", "1", "-out", "next.json")
	parseOnly := func(args []string) error {
		a, err := parseTask(args, true)
		if err == nil && *a.cells != "" {
			_, _, err = shard.ParseCellSpec(*a.cells)
		}
		return err
	}
	f.Fuzz(func(t *testing.T, line string) {
		t.Setenv("IOSCHEDBENCH_CACHE_DIR", "")
		if strings.Contains(line, "\n") {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dispatch.ServeTasks(strings.NewReader(line+"\n"), io.Discard, parseOnly)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(line))+shard.MaxCells*strconv.IntSize/8+64<<10 {
			t.Fatalf("handling a %d-byte line allocated %d", len(line), alloc)
		}
		if costlyTask(line) {
			t.Skip()
		}
		t.Chdir(t.TempDir())
		replies := serveLines(t, line, next)
		if len(replies) != 2 || replies[1] != `{"ok":true}` {
			t.Fatalf("the loop did not answer the task after %q: %q", line, replies)
		}
		switch {
		case replies[0] == `{"ok":true}`:
			var args []string
			json.Unmarshal([]byte(line), &args)
			a, err := parseTask(args, true)
			if err != nil {
				t.Fatalf("accepted line %q does not parse: %v", line, err)
			}
			if _, err := os.Stat(*a.out); err != nil {
				t.Fatalf("accepted task left no cell file: %v", err)
			}
		case strings.HasPrefix(replies[0], `{"error":`):
			if files := regularFiles(t, "."); len(files) != 1 || files[0] != "next.json" {
				t.Fatalf("rejected line %q wrote %v (reply %s)", line, files, replies[0])
			}
		default:
			t.Fatalf("malformed reply %q", replies[0])
		}
	})
}
