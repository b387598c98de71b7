package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Task is one unit of dispatched work: evaluate shard Index of Spec and
// leave the cell file at Out on the local filesystem. In a balanced
// dispatch the unit is a cell batch instead: Cells carries its cell spec
// and Index is the batch id.
type Task struct {
	Spec  Spec
	Index int
	// Cells, when non-empty, is the batch's cell spec
	// (shard.FormatCellSpec): the worker evaluates exactly these cells
	// ("ioschedbench -cells <spec>") instead of shard Index's round-robin
	// share.
	Cells string
	// Out is the local path the shard file must end up at. The driver
	// removes any previous attempt's file before the task runs.
	Out string
}

// args returns the generated worker arguments for the task: the classic
// shard arguments, or the batch arguments when Cells is set.
func (t Task) args() ([]string, error) {
	if t.Cells != "" {
		return t.Spec.BatchWorkerArgs(t.Cells)
	}
	return t.Spec.WorkerArgs(t.Index)
}

// Worker evaluates shards. Implementations must honour ctx cancellation —
// the driver enforces per-attempt timeouts through it — and should return
// an error for any failure they can observe. The driver additionally
// validates the produced file (internal/shard decode, plan ownership,
// completeness, params match), so a worker that exits successfully after
// writing a corrupt or partial file is still caught and retried.
type Worker interface {
	// Name identifies the worker in progress logs and the journal.
	Name() string
	// Run evaluates t's shard and leaves the cell file at t.Out.
	Run(ctx context.Context, t Task) error
}

// LocalProcWorker runs each shard on a warm local child: the first Run
// starts "<Binary> tasks" (docs/DISPATCH.md specifies the tasks
// protocol), and every Run hands the child one task line — the shard
// arguments a one-shot run would get — instead of executing a process
// per shard. Binary must therefore speak the tasks protocol, as
// ioschedbench does; CmdWorker runs any other program once per shard.
// "ioschedbench dispatch -workers N" builds N of these around
// os.Executable().
//
// A child survives only a well-formed success reply: an error reply, a
// malformed reply, the child's exit, a cancelled context or a timeout
// kills and reaps it, and the next Run starts a fresh one. Concurrent
// Runs each get their own child. Release ends the idle children.
type LocalProcWorker struct {
	// Binary is the path of the program to execute.
	Binary string
	// ExtraArgs are appended after the generated shard arguments —
	// typically host-local tuning such as "-parallel 2", which is
	// deliberately absent from Spec.WorkerArgs because it never changes
	// results.
	ExtraArgs []string
	// Env entries are appended to the parent environment for the
	// subprocess; nil inherits the parent environment unchanged.
	Env []string
	// Stderr receives the subprocess's progress output; nil discards it.
	Stderr io.Writer
	// Label overrides the worker's log name; default "local:<binary>".
	Label string

	mu   sync.Mutex
	idle []*child
}

// Name returns the worker's log name.
func (w *LocalProcWorker) Name() string {
	if w.Label != "" {
		return w.Label
	}
	return "local:" + filepath.Base(w.Binary)
}

// Run sends the task's shard arguments, "-out <t.Out>" and ExtraArgs to
// an idle child, starting one if none is idle, and waits for its reply.
func (w *LocalProcWorker) Run(ctx context.Context, t Task) error {
	args, err := t.args()
	if err != nil {
		return err
	}
	args = append(args, "-out", t.Out)
	args = append(args, w.ExtraArgs...)
	line, err := json.Marshal(args)
	if err != nil {
		return err
	}
	c, err := w.take()
	if err != nil {
		return fmt.Errorf("dispatch: %s: %w", w.Name(), err)
	}
	done := make(chan error, 1)
	go func() { done <- c.call(append(line, '\n')) }()
	select {
	case err = <-done:
	case <-ctx.Done():
		werr := c.kill()
		<-done
		return fmt.Errorf("dispatch: %s: %w (%v)", w.Name(), ctx.Err(), werr)
	}
	if err != nil {
		if werr := c.kill(); errors.Is(err, errChildExited) && werr != nil {
			err = fmt.Errorf("%w (%v)", err, werr)
		}
		return fmt.Errorf("dispatch: %s: %w", w.Name(), err)
	}
	w.mu.Lock()
	w.idle = append(w.idle, c)
	w.mu.Unlock()
	return nil
}

// take returns an idle child, or starts one.
func (w *LocalProcWorker) take() (*child, error) {
	w.mu.Lock()
	if n := len(w.idle); n > 0 {
		c := w.idle[n-1]
		w.idle = w.idle[:n-1]
		w.mu.Unlock()
		return c, nil
	}
	w.mu.Unlock()
	return w.startChild()
}

// startChild starts "<Binary> tasks" with the worker's environment and
// stderr.
func (w *LocalProcWorker) startChild() (*child, error) {
	cmd := exec.Command(w.Binary, TasksCommand)
	cmd.Stderr = w.Stderr
	if len(w.Env) > 0 {
		cmd.Env = append(os.Environ(), w.Env...)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &child{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}, nil
}

// Release ends the worker's idle children: it closes every idle child's
// stdin — a tasks child exits at EOF — then waits for all of them. A
// later Run starts a fresh child. dispatch.Run and coord.RunWorker call
// it when they return.
func (w *LocalProcWorker) Release() {
	w.mu.Lock()
	idle := w.idle
	w.idle = nil
	w.mu.Unlock()
	// A released child has answered all its tasks, so neither how its
	// stdin closes nor how it exits can change a result.
	for _, c := range idle {
		_ = c.stdin.Close()
	}
	for _, c := range idle {
		_ = c.cmd.Wait()
	}
}

// release calls Release on every worker that holds processes between
// Runs, concurrently, and waits for all of them.
func release(workers []Worker) {
	var wg sync.WaitGroup
	for _, w := range workers {
		if r, ok := w.(interface{ Release() }); ok {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.Release()
			}()
		}
	}
	wg.Wait()
}

// CmdWorker runs each shard through a user-supplied command template —
// the backend for remote hosts ("ssh host ...") and for wrapper scripts,
// without this package depending on any transport.
//
// Each Argv element may use the placeholders
//
//	{index}   the shard index (the batch id for a balanced dispatch)
//	{shards}  the shard count
//	{out}     the local output path
//	{args}    the generated ioschedbench arguments: Spec.WorkerArgs for a
//	          classic shard, Spec.BatchWorkerArgs for a cell batch
//
// An element that is exactly "{args}" is spliced into the argument list
// as separate arguments; inside a longer element the placeholders expand
// textually (values are space-joined), which suits commands like ssh that
// re-join their trailing arguments into one remote shell line.
//
// The file contract follows from the template: if {out} appears anywhere,
// the command is responsible for leaving the shard file at that local
// path (a local wrapper would pass "{args} -out {out}" through to
// ioschedbench); otherwise the command's standard output is captured into
// the output path, so a remote recipe is simply
//
//	ssh host ioschedbench {args} -out /dev/stdout
//
// Argv is a literal argument vector — there is no shell and no quoting
// layer (the CLI's -worker flag splits its template on whitespace), so
// an individual argument cannot contain a space. Commands that need
// shell features or spaced arguments should be wrapped in a script and
// the script named in Argv.
type CmdWorker struct {
	// Argv is the command template; Argv[0] is the program.
	Argv []string
	// Env entries are appended to the parent environment; nil inherits.
	Env []string
	// Stderr receives the command's stderr; nil discards it.
	Stderr io.Writer
	// Label overrides the worker's log name; default "cmd:<argv0>".
	Label string
}

// Name returns the worker's log name.
func (w *CmdWorker) Name() string {
	if w.Label != "" {
		return w.Label
	}
	if len(w.Argv) > 0 {
		return "cmd:" + filepath.Base(w.Argv[0])
	}
	return "cmd"
}

// Run expands the template for the task and executes it.
func (w *CmdWorker) Run(ctx context.Context, t Task) (err error) {
	if len(w.Argv) == 0 {
		return fmt.Errorf("dispatch: %s: empty command template", w.Name())
	}
	shardArgs, err := t.args()
	if err != nil {
		return err
	}
	capture := true
	var argv []string
	for _, el := range w.Argv {
		if strings.Contains(el, "{out}") {
			capture = false
		}
		if el == "{args}" {
			argv = append(argv, shardArgs...)
			continue
		}
		el = strings.ReplaceAll(el, "{args}", strings.Join(shardArgs, " "))
		el = strings.ReplaceAll(el, "{index}", strconv.Itoa(t.Index))
		el = strings.ReplaceAll(el, "{shards}", strconv.Itoa(t.Spec.Shards))
		el = strings.ReplaceAll(el, "{out}", t.Out)
		argv = append(argv, el)
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stderr = w.Stderr
	if len(w.Env) > 0 {
		cmd.Env = append(os.Environ(), w.Env...)
	}
	if capture {
		f, err := os.Create(t.Out)
		if err != nil {
			return fmt.Errorf("dispatch: %s: %w", w.Name(), err)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("dispatch: %s: %w", w.Name(), cerr)
			}
		}()
		cmd.Stdout = f
	}
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("dispatch: %s: %w (%v)", w.Name(), ctx.Err(), err)
		}
		return fmt.Errorf("dispatch: %s: %w", w.Name(), err)
	}
	return nil
}
