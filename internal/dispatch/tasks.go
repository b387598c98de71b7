package dispatch

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
)

// The tasks protocol between LocalProcWorker and a warm "<binary> tasks"
// child, specified in docs/DISPATCH.md: each task is one line on the
// child's stdin, a JSON array of strings holding exactly the argv a
// one-shot run of the binary would get; the child answers each line with
// one reply line on its stdout, {"ok":true} or {"error":"<message>"}.

// TasksCommand is the subcommand that turns a worker binary into a warm
// tasks child.
const TasksCommand = "tasks"

// taskReply is one reply line.
type taskReply struct {
	OK    bool   `json:"ok,omitempty"`
	Error string `json:"error,omitempty"`
}

// ServeTasks is the child side of the tasks protocol: it answers every
// line of r with one reply line on w, evaluating each well-formed task
// line with run. A malformed line or a failed run gets an error reply and
// the loop goes on to the next line. It returns nil at EOF on r, or the
// first read or write error.
func ServeTasks(r io.Reader, w io.Writer, run func(args []string) error) error {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return rerr
		}
		if len(line) > 0 {
			var err error
			var args []string
			if jerr := json.Unmarshal(line, &args); jerr != nil || args == nil {
				err = errors.New("malformed task line: want a JSON array of strings")
			} else {
				err = run(args)
			}
			reply := taskReply{OK: err == nil}
			if err != nil {
				reply.Error = err.Error()
			}
			out, _ := json.Marshal(reply) // cannot fail: two plain fields
			if _, err := w.Write(append(out, '\n')); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
	}
}

// errChildExited is a call's error when the child closed its stdout
// before replying.
var errChildExited = errors.New("tasks child exited")

// child is one warm tasks child of a LocalProcWorker.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
}

// call sends one task line and reads its reply. Any error — a failed
// write, EOF, a malformed or error reply — leaves the child unusable.
func (c *child) call(line []byte) error {
	if _, err := c.stdin.Write(line); err != nil {
		return err
	}
	out, err := c.stdout.ReadBytes('\n')
	if err != nil {
		if err == io.EOF {
			return errChildExited
		}
		return err
	}
	var r taskReply
	if err := json.Unmarshal(out, &r); err != nil || (r.OK == (r.Error != "")) {
		return fmt.Errorf("malformed reply %q", out)
	}
	if !r.OK {
		return errors.New(r.Error)
	}
	return nil
}

// kill kills and reaps the child, returning its exit error.
func (c *child) kill() error {
	// Kill fails only for a child that already exited; Wait reports how.
	_ = c.cmd.Process.Kill()
	return c.cmd.Wait()
}
