//go:build linux || darwin

package dispatch

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiment"
)

// warmWorker is a LocalProcWorker over the emulator whose tasks log
// their process ids to the returned file.
func warmWorker(t *testing.T, mode string) (*LocalProcWorker, string) {
	t.Helper()
	pids := filepath.Join(t.TempDir(), "pids")
	w := &LocalProcWorker{Binary: os.Args[0], Env: []string{workerEmulateEnv + "=" + mode, workerPIDLogEnv + "=" + pids}}
	t.Cleanup(w.Release)
	return w, pids
}

// readPIDs returns the process id of every task logged so far, in order.
func readPIDs(t *testing.T, path string) []int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var pids []int
	for _, f := range strings.Fields(string(data)) {
		pid, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	return pids
}

// alive reports whether a process id still names a process. Children
// are reaped by the worker, so a dead child's id is gone.
func alive(pid int) bool {
	return syscall.Kill(pid, 0) == nil
}

// idleChildren returns how many children w holds idle.
func idleChildren(w *LocalProcWorker) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.idle)
}

func shardTask(t *testing.T, spec Spec, index int) Task {
	return Task{Spec: spec, Index: index, Out: filepath.Join(t.TempDir(), "shard"+strconv.Itoa(index)+".json")}
}

func cacheEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWarmChildTasksMatchOneShot runs tasks A, B, A on one warm child —
// A with a cell cache, B and the second A without — and requires each
// file to equal, byte for byte, a one-shot run of the same arguments:
// nothing carries from one task to the next.
func TestWarmChildTasksMatchOneShot(t *testing.T) {
	spec := testSpec(experiment.ExpFig5, 2)
	cache := filepath.Join(t.TempDir(), "cache")
	w, pids := warmWorker(t, "ok")
	if idleChildren(w) != 0 || len(readPIDs(t, pids)) != 0 {
		t.Fatal("a child started before the first Run")
	}
	steps := []struct {
		index int
		extra []string
	}{
		{0, []string{"-cache-dir", cache}},
		{1, nil},
		{0, nil},
	}
	var entries []int
	for i, st := range steps {
		w.ExtraArgs = st.extra
		warm := shardTask(t, spec, st.index)
		if err := w.Run(context.Background(), warm); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		entries = append(entries, cacheEntries(t, cache))
		oneShot := shardTask(t, spec, st.index)
		argv := append([]string{os.Args[0], "{args}", "-out", "{out}"}, st.extra...)
		if err := (&CmdWorker{Argv: argv, Env: []string{workerEmulateEnv + "=ok"}}).Run(context.Background(), oneShot); err != nil {
			t.Fatalf("one-shot %d: %v", i, err)
		}
		got, err := os.ReadFile(warm.Out)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(oneShot.Out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("task %d: warm file differs from the one-shot run's", i)
		}
	}
	if entries[0] == 0 || entries[1] != entries[0] || entries[2] != entries[0] {
		t.Errorf("cache entries after each task = %v: only the first task may deposit", entries)
	}
	if got := readPIDs(t, pids); len(got) != 3 || got[1] != got[0] || got[2] != got[0] {
		t.Errorf("task pids = %v, want one warm child for all three", got)
	}
	if idleChildren(w) != 1 {
		t.Errorf("%d idle children, want 1", idleChildren(w))
	}
}

// TestWarmChildFailureKillsChild: a child survives only a well-formed
// success reply. Each failure kills and reaps the warm child, and the
// next task runs in a fresh one.
func TestWarmChildFailureKillsChild(t *testing.T) {
	spec := testSpec(experiment.ExpFig5, 2)
	for _, tc := range []struct {
		name string
		mode string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"error reply", "fail", nil, nil},
		{"malformed reply", "garble", nil, nil},
		{"child exit", "crash", nil, errChildExited},
		{"timeout", "hang", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 300*time.Millisecond)
		}, context.DeadlineExceeded},
		{"cancel", "hang", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(300*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, pids := warmWorker(t, "ok")
			if err := w.Run(context.Background(), shardTask(t, spec, 0)); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if tc.ctx != nil {
				ctx, cancel = tc.ctx()
			}
			defer cancel()
			w.ExtraArgs = []string{"-emulate", tc.mode}
			err := w.Run(ctx, shardTask(t, spec, 1))
			if err == nil {
				t.Fatal("failed task reported success")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("error %v, want %v", err, tc.want)
			}
			if tc.name == "error reply" && !strings.Contains(err.Error(), "emulated task failure") {
				t.Errorf("error %q does not carry the reply's message", err)
			}
			first := readPIDs(t, pids)[0]
			if alive(first) || idleChildren(w) != 0 {
				t.Fatalf("the failed child %d survived (%d idle)", first, idleChildren(w))
			}
			w.ExtraArgs = nil
			if err := w.Run(context.Background(), shardTask(t, spec, 1)); err != nil {
				t.Fatal(err)
			}
			got := readPIDs(t, pids)
			if len(got) != 3 || got[2] == first {
				t.Errorf("task pids = %v: the task after the failure must run in a fresh child", got)
			}
		})
	}
}

// TestWarmChildAttemptTimeoutRetries drives the timeout through the
// driver: the first attempt hangs past Options.AttemptTimeout, and the
// retry on the same worker runs in a fresh child.
func TestWarmChildAttemptTimeoutRetries(t *testing.T) {
	spec := testSpec(experiment.ExpFig5, 1)
	want := refEncoded(t, spec)
	w, pids := warmWorker(t, "hangfirst")
	res, err := Run(context.Background(), spec, []Worker{w}, Options{AttemptTimeout: 2 * time.Second, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Retries != 1 || !strings.Contains(res.Attempts[0].Err, "timeout") {
		t.Errorf("attempts %+v: want one timed-out attempt and one retry", res.Attempts)
	}
	got := readPIDs(t, pids)
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("task pids = %v: the retry must run in a fresh child", got)
	}
	for _, pid := range got {
		if alive(pid) {
			t.Errorf("child %d outlived the dispatch", pid)
		}
	}
}

// TestWarmChildConcurrentRunsAndRelease: concurrent Runs on one worker
// each get their own child (the tasks wait for each other, so they
// could not share one), and Release ends every idle child.
func TestWarmChildConcurrentRunsAndRelease(t *testing.T) {
	const n = 3
	spec := testSpec(experiment.ExpFig5, n)
	w, pids := warmWorker(t, "ok")
	w.ExtraArgs = []string{"-gather", strconv.Itoa(n)}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx, shardTask(t, spec, i))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	got := readPIDs(t, pids)
	distinct := map[int]bool{}
	for _, pid := range got {
		distinct[pid] = true
	}
	if len(distinct) != n || idleChildren(w) != n {
		t.Fatalf("task pids %v, %d idle: want %d children", got, idleChildren(w), n)
	}
	w.Release()
	if idleChildren(w) != 0 {
		t.Error("Release kept idle children")
	}
	for pid := range distinct {
		if alive(pid) {
			t.Errorf("child %d survived Release", pid)
		}
	}
}

// TestDispatchReleasesChildren: dispatch.Run leaves no child running
// when it returns.
func TestDispatchReleasesChildren(t *testing.T) {
	spec := testSpec(experiment.ExpFig5, 4)
	w, pids := warmWorker(t, "ok")
	if _, err := Run(context.Background(), spec, []Worker{w}, Options{}); err != nil {
		t.Fatal(err)
	}
	got := readPIDs(t, pids)
	if len(got) != 4 || got[3] != got[0] {
		t.Errorf("task pids = %v, want one warm child for all four shards", got)
	}
	if idleChildren(w) != 0 || alive(got[0]) {
		t.Error("a child outlived dispatch.Run")
	}
}

// TestServeTasks drives the child side in process: every line gets one
// reply, a malformed line or failed task an error reply, and the loop
// ends cleanly at EOF.
func TestServeTasks(t *testing.T) {
	in := strings.Join([]string{`["a"]`, `not json`, `[1]`, `null`, `["fail"]`, `["b"]`}, "\n")
	var ran []string
	var out bytes.Buffer
	err := ServeTasks(strings.NewReader(in), &out, func(args []string) error {
		ran = append(ran, args...)
		if args[0] == "fail" {
			return errors.New("boom")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ok":true}
{"error":"malformed task line: want a JSON array of strings"}
{"error":"malformed task line: want a JSON array of strings"}
{"error":"malformed task line: want a JSON array of strings"}
{"error":"boom"}
{"ok":true}
`
	if out.String() != want {
		t.Errorf("replies:\n%s\nwant:\n%s", out.String(), want)
	}
	if strings.Join(ran, ",") != "a,fail,b" {
		t.Errorf("ran %q", ran)
	}
}
