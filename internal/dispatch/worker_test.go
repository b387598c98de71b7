package dispatch

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cellcache"
	"repro/internal/experiment"
)

// The subprocess backends are tested against this test binary itself:
// when re-executed with workerEmulateEnv set, TestMain branches into
// workerMain, which accepts the ioschedbench shard flags
// (Spec.WorkerArgs' contract) and evaluates the shard in-process — once
// per process for CmdWorker, or per task line of the tasks loop for
// LocalProcWorker's warm children. That exercises both backends as real
// subprocesses without building the CLI; cmd/ioschedbench's
// TestCLIEndToEnd covers the real CLI end to end.
const workerEmulateEnv = "DISPATCH_WORKER_EMULATE"

// workerPIDLogEnv names a file every emulated task appends its
// process id to, so tests can tell which child ran which task.
const workerPIDLogEnv = "DISPATCH_WORKER_PIDLOG"

func TestMain(m *testing.M) {
	if os.Getenv(workerEmulateEnv) != "" {
		os.Exit(workerMain(os.Getenv(workerEmulateEnv)))
	}
	os.Exit(m.Run())
}

// workerMain emulates the ioschedbench shard CLI: a one-shot run of its
// arguments, or the tasks loop over stdin when the first argument is
// TasksCommand. mode is the default injected behaviour of each task.
func workerMain(mode string) int {
	if len(os.Args) > 1 && os.Args[1] == TasksCommand {
		if err := ServeTasks(os.Stdin, os.Stdout, func(args []string) error { return emulateTask(mode, args) }); err != nil {
			return 1
		}
		return 0
	}
	if err := emulateTask(mode, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// emulateTask evaluates one task. The mode — the -emulate flag if given,
// else the process default — selects an injected failure: "crash" exits
// before writing, "corrupt" writes garbage, "fail" returns an error (an
// error reply), "garble" writes a stray line to stdout (a malformed
// reply), "hang" never returns, "hangfirst" hangs only in the first task
// the pid log records; "ok" behaves honestly. -gather n waits until the
// pid log holds n tasks, so n concurrent tasks meet before any returns.
func emulateTask(mode string, args []string) error {
	fs := flag.NewFlagSet("worker-emulate", flag.ContinueOnError)
	var (
		which    = fs.String("experiment", "all", "")
		systems  = fs.Int("systems", 0, "")
		seed     = fs.Int64("seed", 1, "")
		gaPop    = fs.Int("gapop", 0, "")
		gaGens   = fs.Int("gagens", 0, "")
		paper    = fs.Bool("paperscale", false, "")
		ablU     = fs.Float64("ablation-u", 0.6, "")
		shards   = fs.Int("shards", 1, "")
		index    = fs.Int("shard-index", 0, "")
		out      = fs.String("out", "", "")
		cacheDir = fs.String("cache-dir", "", "")
		_        = fs.Int("parallel", 0, "")
		gather   = fs.Int("gather", 0, "")
	)
	fs.StringVar(&mode, "emulate", mode, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tasks := logPID()
	for *gather > 0 && tasks < *gather {
		time.Sleep(5 * time.Millisecond)
		tasks = countPIDs()
	}
	switch {
	case mode == "crash":
		fmt.Fprintln(os.Stderr, "emulated worker crash")
		os.Exit(1)
	case mode == "corrupt":
		return os.WriteFile(*out, []byte("junk"), 0o644)
	case mode == "fail":
		return fmt.Errorf("emulated task failure")
	case mode == "garble":
		fmt.Println("emulated stray output")
	case mode == "hang", mode == "hangfirst" && tasks == 1:
		time.Sleep(time.Hour)
	}
	p := experiment.ShardParams{
		PaperScale: *paper, Systems: *systems, Seed: *seed,
		GAPopulation: *gaPop, GAGenerations: *gaGens, AblationU: *ablU,
	}
	var cache *cellcache.Store
	if *cacheDir != "" {
		var err error
		if cache, err = cellcache.Open(*cacheDir); err != nil {
			return err
		}
	}
	f, err := experiment.RunShardCached(*which, p, 1, *shards, *index, cache)
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("no -out")
	}
	return f.WriteFile(*out)
}

// logPID appends this process's id to the pid log, if one is set, and
// returns the number of tasks the log then holds.
func logPID() int {
	path := os.Getenv(workerPIDLogEnv)
	if path == "" {
		return 0
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil {
		fmt.Fprintln(f, os.Getpid())
		f.Close()
	}
	return countPIDs()
}

func countPIDs() int {
	data, _ := os.ReadFile(os.Getenv(workerPIDLogEnv))
	return bytes.Count(data, []byte("\n"))
}

func TestLocalProcWorkerDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	want := refEncoded(t, spec)
	ws := []Worker{
		&LocalProcWorker{Binary: os.Args[0], Env: []string{workerEmulateEnv + "=ok"}, Label: "proc0"},
		&LocalProcWorker{Binary: os.Args[0], Env: []string{workerEmulateEnv + "=ok"}},
	}
	res, err := Run(context.Background(), spec, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
}

// TestLocalProcWorkerCrashRetries runs a pool where one subprocess
// backend always exits non-zero: the other worker must pick up the
// retries and the merged output must still match the unsharded run.
func TestLocalProcWorkerCrashRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	want := refEncoded(t, spec)
	var log bytes.Buffer
	ws := []Worker{
		&LocalProcWorker{Binary: os.Args[0], Env: []string{workerEmulateEnv + "=crash"}, Label: "crasher", Stderr: &log},
		&LocalProcWorker{Binary: os.Args[0], Env: []string{workerEmulateEnv + "=ok"}, Label: "good"},
	}
	res, err := Run(context.Background(), spec, ws, Options{MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Retries < 1 {
		t.Fatal("crashing subprocess produced no retries")
	}
	if !strings.Contains(log.String(), "emulated worker crash") {
		t.Errorf("subprocess stderr not forwarded: %q", log.String())
	}
}

func TestCmdWorkerOutPlaceholder(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	want := refEncoded(t, spec)
	// {out} present: the command owns the file, nothing is captured.
	argv := []string{os.Args[0], "{args}", "-out", "{out}"}
	ws := []Worker{
		&CmdWorker{Argv: argv, Env: []string{workerEmulateEnv + "=ok"}},
		&CmdWorker{Argv: argv, Env: []string{workerEmulateEnv + "=ok"}, Label: "second"},
	}
	res, err := Run(context.Background(), spec, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
}

func TestCmdWorkerStdoutCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	want := refEncoded(t, spec)
	// No {out}: stdout is captured into the shard path — the remote
	// recipe ("ssh host ioschedbench {args} -out /dev/stdout") without
	// the ssh.
	argv := []string{os.Args[0], "{args}", "-out", "/dev/stdout"}
	ws := []Worker{
		&CmdWorker{Argv: argv, Env: []string{workerEmulateEnv + "=ok"}},
		&CmdWorker{Argv: argv, Env: []string{workerEmulateEnv + "=ok"}},
	}
	res, err := Run(context.Background(), spec, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
}

// TestCmdWorkerCorruptRetries injects the "subprocess exits 0 but the
// file is garbage" failure through a real subprocess boundary.
func TestCmdWorkerCorruptRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	want := refEncoded(t, spec)
	argv := []string{os.Args[0], "{args}", "-out", "{out}"}
	ws := []Worker{
		&CmdWorker{Argv: argv, Env: []string{workerEmulateEnv + "=corrupt"}, Label: "corruptor"},
		&CmdWorker{Argv: argv, Env: []string{workerEmulateEnv + "=ok"}, Label: "good"},
	}
	res, err := Run(context.Background(), spec, ws, Options{MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Retries < 1 {
		t.Fatal("corrupt subprocess output produced no retries")
	}
	var sawValidationError bool
	for _, a := range res.Attempts {
		if a.Err != "" && strings.Contains(a.Err, "decode") {
			sawValidationError = true
		}
	}
	if !sawValidationError {
		t.Errorf("no validation failure recorded: %+v", res.Attempts)
	}
}

func TestCmdWorkerPlaceholderExpansion(t *testing.T) {
	spec := testSpec(experiment.ExpFig5, 3)
	task := Task{Spec: spec, Index: 1, Out: filepath.Join(t.TempDir(), "o.json")}
	shardArgs, err := spec.WorkerArgs(1)
	if err != nil {
		t.Fatal(err)
	}
	// Textual {args} inside a larger element must space-join, as an ssh
	// remote command line would need.
	w := &CmdWorker{Argv: []string{"echo", "run {index}/{shards}: {args}"}}
	if got, want := w.Name(), "cmd:echo"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
	if err := w.Run(context.Background(), task); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(task.Out) // capture mode: echo's stdout
	if err != nil {
		t.Fatal(err)
	}
	want := "run 1/3: " + strings.Join(shardArgs, " ") + "\n"
	if string(data) != want {
		t.Errorf("expanded template = %q, want %q", data, want)
	}

	if err := (&CmdWorker{}).Run(context.Background(), task); err == nil {
		t.Error("empty template accepted")
	}
}
