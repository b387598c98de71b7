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

	"repro/internal/experiment"
)

// The subprocess backends are tested against this test binary itself:
// when re-executed with workerEmulateEnv set, TestMain branches into
// workerMain, which accepts the ioschedbench shard flags
// (Spec.WorkerArgs' contract) and evaluates the shard in-process. That
// exercises LocalProcWorker and CmdWorker as real subprocesses without
// building the CLI; cmd/ioschedbench's TestCLIEndToEnd covers the real
// CLI end to end.
const workerEmulateEnv = "DISPATCH_WORKER_EMULATE"

func TestMain(m *testing.M) {
	if os.Getenv(workerEmulateEnv) != "" {
		os.Exit(workerMain(os.Getenv(workerEmulateEnv)))
	}
	os.Exit(m.Run())
}

// workerMain emulates the ioschedbench shard CLI. mode selects an
// injected failure: "crash" exits before writing, "corrupt" writes
// garbage; "ok" behaves honestly.
func workerMain(mode string) int {
	fs := flag.NewFlagSet("worker-emulate", flag.ContinueOnError)
	var (
		which   = fs.String("experiment", "all", "")
		systems = fs.Int("systems", 0, "")
		seed    = fs.Int64("seed", 1, "")
		gaPop   = fs.Int("gapop", 0, "")
		gaGens  = fs.Int("gagens", 0, "")
		paper   = fs.Bool("paperscale", false, "")
		ablU    = fs.Float64("ablation-u", 0.6, "")
		shards  = fs.Int("shards", 1, "")
		index   = fs.Int("shard-index", 0, "")
		out     = fs.String("out", "", "")
		_       = fs.Int("parallel", 0, "")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	switch mode {
	case "crash":
		fmt.Fprintln(os.Stderr, "emulated worker crash")
		return 1
	case "corrupt":
		if err := os.WriteFile(*out, []byte("junk"), 0o644); err != nil {
			return 1
		}
		return 0
	}
	p := experiment.ShardParams{
		PaperScale: *paper, Systems: *systems, Seed: *seed,
		GAPopulation: *gaPop, GAGenerations: *gaGens, AblationU: *ablU,
	}
	f, err := experiment.RunShard(*which, p, 1, *shards, *index)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "no -out")
		return 1
	}
	if err := f.WriteFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
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
