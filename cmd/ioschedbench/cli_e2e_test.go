//go:build linux || darwin

package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// cliEnv switches the test binary into the ioschedbench CLI. The
// end-to-end test re-executes itself with it set, and every worker the
// CLI spawns (local workers, worker scripts, coordinator workers)
// inherits it, so the test drives the real CLI without building it.
const cliEnv = "IOSCHEDBENCH_E2E_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli runs the CLI inside one temporary working directory, as a shell in
// that directory would: ./ioschedbench there is this test binary, so
// worker scripts exec it exactly as they exec a built CLI.
type cli struct {
	t   *testing.T
	dir string // working directory of every command
	out string // captured stdout/stderr files
}

func newCLI(t *testing.T) *cli {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c := &cli{t: t, dir: t.TempDir(), out: t.TempDir()}
	if err := os.Symlink(self, c.path("ioschedbench")); err != nil {
		t.Fatal(err)
	}
	return c
}

// path resolves a name relative to the working directory.
func (c *cli) path(name string) string { return filepath.Join(c.dir, name) }

// startCmd starts one CLI invocation and returns the paths its stdout and
// stderr go to. The output goes to files, not pipes: a worker script's
// orphaned sleep must not hold the test's pipes open. Each command leads
// its own process group so its stray descendants can be stopped with it.
func (c *cli) startCmd(args ...string) (cmd *exec.Cmd, stdout, stderr string) {
	c.t.Helper()
	cmd = exec.Command(c.path("ioschedbench"), args...)
	cmd.Dir = c.dir
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	files := make([]*os.File, 2)
	for i := range files {
		f, err := os.CreateTemp(c.out, "out")
		if err != nil {
			c.t.Fatal(err)
		}
		defer f.Close() // the child holds its own copy once started
		files[i] = f
	}
	cmd.Stdout, cmd.Stderr = files[0], files[1]
	if err := cmd.Start(); err != nil {
		c.t.Fatal(err)
	}
	return cmd, files[0].Name(), files[1].Name()
}

// run runs the CLI to completion and returns its stdout, stderr and
// exit error; stray descendants (a worker script's sleep) are killed.
func (c *cli) run(args ...string) (stdout, stderr string, err error) {
	c.t.Helper()
	cmd, outPath, errPath := c.startCmd(args...)
	err = cmd.Wait()
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	return c.read(outPath), c.read(errPath), err
}

// must runs the CLI and fails the test unless it exits 0, as every
// unguarded command of a `set -e` shell script must.
func (c *cli) must(args ...string) (stdout, stderr string) {
	c.t.Helper()
	stdout, stderr, err := c.run(args...)
	if err != nil {
		c.t.Fatalf("ioschedbench %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return stdout, stderr
}

// proc is a CLI process running in the background.
type proc struct {
	cmd    *exec.Cmd
	done   chan struct{}
	err    error
	stdout string
}

// start runs the CLI in the background. The process group is killed
// and reaped when the test ends, if stop has not already done so.
func (c *cli) start(args ...string) *proc {
	c.t.Helper()
	cmd, outPath, _ := c.startCmd(args...)
	p := &proc{cmd: cmd, done: make(chan struct{}), stdout: outPath}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	c.t.Cleanup(p.stop)
	return p
}

// wait waits for the process to exit by itself and returns its exit
// error.
func (p *proc) wait() error {
	<-p.done
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	return p.err
}

// stop kills the process and its group and waits for it.
func (p *proc) stop() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
}

func (c *cli) read(path string) string {
	c.t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		c.t.Fatal(err)
	}
	return string(data)
}

// script writes an executable shell script into the working directory.
func (c *cli) script(name, body string) {
	c.t.Helper()
	if err := os.WriteFile(c.path(name), []byte("#!/bin/sh\n"+body), 0o755); err != nil {
		c.t.Fatal(err)
	}
}

// exists is `test -f`/`test -d`.
func (c *cli) exists(name string) bool {
	_, err := os.Stat(c.path(name))
	return err == nil
}

// same is `diff want got`: got must equal the reference byte for byte.
func same(t *testing.T, what, want, got string) {
	t.Helper()
	if want != got {
		t.Errorf("%s differs from the unsharded run:\n--- unsharded\n%s\n--- %s\n%s", what, want, what, got)
	}
}

// contains is `grep -q` with a fixed string; matches is `grep -Eq`.
func contains(t *testing.T, what, text, sub string) {
	t.Helper()
	if !strings.Contains(text, sub) {
		t.Errorf("%s lacks %q:\n%s", what, sub, text)
	}
}

func matches(t *testing.T, what, text, re string) {
	t.Helper()
	if !regexp.MustCompile(re).MatchString(text) {
		t.Errorf("%s does not match %q:\n%s", what, re, text)
	}
}

// The worker scripts: flaky.sh crashes once on shard 1, killer.sh takes
// the dispatch driver down at shard 2, slow.sh delays the "slow" worker
// by 10s, json.sh and binary.sh pin a shard encoding, and die.sh kills
// the coordinator worker that runs it mid-unit.
const (
	flakyScript = `idx="$1"; shift
if [ "$idx" = "1" ] && [ ! -f crashed-once ]; then
  touch crashed-once
  echo "flaky.sh: injected crash for shard $idx" >&2
  exit 1
fi
exec ./ioschedbench "$@"
`
	killerScript = `idx="$1"; shift
if [ "$idx" = "2" ]; then
  echo "killer.sh: taking the driver down at shard $idx" >&2
  kill $PPID
  sleep 5
  exit 1
fi
exec ./ioschedbench "$@"
`
	slowScript = `who="$1"; shift
if [ "$who" = "slow" ]; then
  sleep 10
fi
exec ./ioschedbench "$@"
`
	jsonScript   = "exec ./ioschedbench -codec json \"$@\"\n"
	binaryScript = "exec ./ioschedbench -codec binary \"$@\"\n"
	dieScript    = `echo "die.sh: killing the worker mid-unit" >&2
kill $PPID
sleep 60
`
)

// sweep is the run every "all" scenario diffs against the unsharded
// rendering of.
var sweep = []string{"-systems", "6", "-gapop", "12", "-gagens", "8"}

func withSweep(args ...string) []string { return append(args, sweep...) }

// TestCLIEndToEnd is the CLI boundary's "run it two ways and diff"
// suite: sharded, dispatched (with injected crashes, a killed driver and
// work stealing), mixed-codec and coordinator-served runs of the same
// sweep must each render output byte-identical to the unsharded run,
// and the journal, status and partial outputs must say what happened.
func TestCLIEndToEnd(t *testing.T) {
	ref := newCLI(t)
	unsharded, _ := ref.must(withSweep("-parallel", "1")...)
	unshardedTailQ, _ := ref.must("-experiment", "tailq", "-systems", "6", "-parallel", "1")

	for _, sc := range []struct {
		name string
		run  func(t *testing.T, c *cli)
	}{
		{"shard", func(t *testing.T, c *cli) {
			c.must(withSweep("-parallel", "1", "-shards", "3", "-shard-index", "0", "-out", "shard0.json")...)
			c.must(withSweep("-parallel", "0", "-shards", "3", "-shard-index", "1", "-out", "shard1.json")...)
			c.must(withSweep("-parallel", "2", "-shards", "3", "-shard-index", "2", "-out", "shard2.json")...)
			merged, _ := c.must("merge", "shard0.json", "shard1.json", "shard2.json")
			same(t, "merged", unsharded, merged)
		}},
		{"dispatch", func(t *testing.T, c *cli) {
			c.script("flaky.sh", flakyScript)
			flaky := "./flaky.sh {index} {args} -out {out}"
			dispatched, _ := c.must(withSweep("dispatch", "-shards", "3", "-retries", "2", "-dir", "work",
				"-worker", flaky, "-worker", flaky, "-worker", flaky)...)
			same(t, "dispatched", unsharded, dispatched)
			if !c.exists("crashed-once") {
				t.Error("the failure was not injected")
			}
			journal := c.read(c.path("work/dispatch.journal"))
			contains(t, "journal", journal, `"event":"fail"`)
			contains(t, "journal", journal, `"event":"merged"`)

			// Resume over the completed journal is a no-op.
			resumed, log := c.must(withSweep("dispatch", "-shards", "3", "-workers", "2", "-dir", "work")...)
			same(t, "resumed", unsharded, resumed)
			matches(t, "resume log", log, `3 resumed, [0-9]+ cached, 0 run`)

			// Kill the driver mid-run, observe the gap, render partial,
			// resume byte-identical. One worker, so shards 0 and 1 are on
			// disk when killer.sh takes the driver down at shard 2.
			c.script("killer.sh", killerScript)
			if _, _, err := c.run(withSweep("dispatch", "-shards", "3", "-retries", "0", "-dir", "work2",
				"-worker", "./killer.sh {index} {args} -out {out}")...); err == nil {
				t.Fatal("dispatch survived the injected kill")
			}
			status, _ := c.must("status", "work2")
			contains(t, "status", status, "coverage: 2/3 shards done")
			contains(t, "status", status, "missing shards: 2")
			partial, _ := c.must("merge", "-partial", "work2/shard0.json", "work2/shard1.json")
			contains(t, "partial", partial, "PARTIAL results: 2/3 shards present (missing shards: 2)")
			contains(t, "partial", partial, "PARTIAL:")
			resumed2, log2 := c.must(withSweep("dispatch", "-shards", "3", "-workers", "2", "-dir", "work2")...)
			same(t, "resumed2", unsharded, resumed2)
			matches(t, "resume2 log", log2, `2 resumed, [0-9]+ cached, 1 run`)
			status2, _ := c.must("status", "work2")
			contains(t, "status", status2, "merged: yes")
		}},
		{"balanced-dispatch", func(t *testing.T, c *cli) {
			// Two workers, one sleeping 10s before every batch: the fast
			// one must steal the straggler, first completion wins.
			c.script("slow.sh", slowScript)
			dispatched, _ := c.must(withSweep("dispatch", "-balance", "cost", "-steal", "-shards", "2", "-retries", "2",
				"-dir", "work",
				"-worker", "./slow.sh slow {args} -out {out}",
				"-worker", "./slow.sh fast {args} -out {out}")...)
			same(t, "dispatched", unsharded, dispatched)
			journal := c.read(c.path("work/dispatch.journal"))
			contains(t, "journal", journal, `"event":"steal"`)
			contains(t, "journal", journal, `"balance":"cost"`)
			status, _ := c.must("status", "work")
			contains(t, "status", status, "balance cost")
			contains(t, "status", status, "merged: yes")

			resumed, log := c.must(withSweep("dispatch", "-balance", "cost", "-shards", "2", "-workers", "2", "-dir", "work")...)
			same(t, "resumed", unsharded, resumed)
			contains(t, "resume log", log, " 0 run")
		}},
		{"cross-codec", func(t *testing.T, c *cli) {
			// A cover deliberately mixing v1 JSON and v2 binary files.
			if err := os.Mkdir(c.path("mix"), 0o755); err != nil {
				t.Fatal(err)
			}
			c.must(withSweep("-shards", "3", "-shard-index", "0", "-codec", "json", "-out", "mix/shard0.json")...)
			c.must(withSweep("-shards", "3", "-shard-index", "1", "-codec", "binary", "-out", "mix/shard1.json")...)
			c.must(withSweep("-shards", "3", "-shard-index", "2", "-codec", "binary", "-out", "mix/shard2.json")...)
			if head := c.read(c.path("mix/shard0.json")); !strings.HasPrefix(head, "{") {
				t.Error("mix/shard0.json is not a JSON container")
			}
			for _, name := range []string{"mix/shard1.json", "mix/shard2.json"} {
				if head := c.read(c.path(name)); len(head) < 4 || !strings.Contains(head[:4], "IOS") {
					t.Errorf("%s is not a binary container", name)
				}
			}
			mixed, _ := c.must("merge", "mix/shard0.json", "mix/shard1.json", "mix/shard2.json")
			same(t, "mixed", unsharded, mixed)

			// Two workers, one pinned to each encoding.
			c.script("json.sh", jsonScript)
			c.script("binary.sh", binaryScript)
			dispatched, _ := c.must(withSweep("dispatch", "-shards", "4", "-dir", "work",
				"-worker", "./json.sh {args} -out {out}",
				"-worker", "./binary.sh {args} -out {out}")...)
			same(t, "dispatched", unsharded, dispatched)
			status, _ := c.must("status", "work")
			matches(t, "status", status, `\[(json|binary)\]`)
			resumed, log := c.must(withSweep("dispatch", "-shards", "4", "-workers", "2", "-dir", "work")...)
			same(t, "resumed", unsharded, resumed)
			matches(t, "resume log", log, `4 resumed, [0-9]+ cached, 0 run`)

			// The binary driver end to end, with a binary merge output and
			// a warm binary cache.
			dispatchedBin, _ := c.must(withSweep("dispatch", "-codec", "binary", "-shards", "3",
				"-dir", "work-bin", "-cache-dir", "cache-bin", "-out", "merged-bin.json")...)
			same(t, "dispatched-bin", unsharded, dispatchedBin)
			if head := c.read(c.path("merged-bin.json")); len(head) < 4 || !strings.Contains(head[:4], "IOS") {
				t.Error("merged-bin.json is not a binary container")
			}
			remerged, _ := c.must("merge", "work-bin/shard0.json", "work-bin/shard1.json", "work-bin/shard2.json")
			same(t, "remerged", unsharded, remerged)
			warm, _ := c.must(withSweep("-codec", "binary", "-cache-dir", "cache-bin")...)
			same(t, "warm", unsharded, warm)
		}},
		{"coordinator", func(t *testing.T, c *cli) {
			// A worker whose compute binary kills the worker mid-unit, and
			// an honest worker started only once the coordinator has
			// journaled the loss.
			serve := c.start("serve", "-dir", "state", "-addr", "127.0.0.1:0", "-addr-file", "url.txt",
				"-heartbeat-timeout", "2s")
			url := waitAddr(t, c, "url.txt")
			c.script("die.sh", dieScript)
			doomed := c.start("work", "-connect", url, "-name", "doomed", "-bin", "./die.sh")
			submit := c.start("submit", "-connect", url, "-wait", "-experiment", "tailq", "-systems", "6", "-shards", "3")
			journalPath := c.path("state/runs/run-0001/dispatch.journal")
			for i := 0; i < 120; i++ {
				if data, err := os.ReadFile(journalPath); err == nil && bytes.Contains(data, []byte("heartbeat timeout")) {
					break
				}
				time.Sleep(500 * time.Millisecond)
			}
			steady := c.start("work", "-connect", url, "-name", "steady")
			if err := submit.wait(); err != nil {
				t.Fatalf("submit: %v", err)
			}
			same(t, "submitted", unshardedTailQ, c.read(submit.stdout))
			journal := c.read(journalPath)
			contains(t, "journal", journal, `"event":"fail"`)
			contains(t, "journal", journal, "heartbeat timeout")
			contains(t, "journal", journal, `"event":"merged"`)
			for _, p := range []*proc{steady, doomed, serve} {
				p.stop()
			}

			// A restarted coordinator serves the same bytes from its
			// journal.
			c.start("serve", "-dir", "state", "-addr", "127.0.0.1:0", "-addr-file", "url2.txt")
			url2 := waitAddr(t, c, "url2.txt")
			resumed, _ := c.must("submit", "-connect", url2, "-run", "run-0001", "-wait")
			same(t, "resumed", unshardedTailQ, resumed)
		}},
		{"tailq", func(t *testing.T, c *cli) {
			// The registry-only experiment through the whole pipeline.
			experiments, _ := c.must("experiments")
			matches(t, "experiments", experiments, `(?m)^tailq `)
			c.script("flaky.sh", flakyScript)
			flaky := "./flaky.sh {index} {args} -out {out}"
			dispatched, _ := c.must("dispatch", "-experiment", "tailq", "-shards", "3", "-retries", "2", "-systems", "6",
				"-dir", "work", "-worker", flaky, "-worker", flaky)
			same(t, "dispatched", unshardedTailQ, dispatched)
			if !c.exists("crashed-once") {
				t.Error("the failure was not injected")
			}
			contains(t, "journal", c.read(c.path("work/dispatch.journal")), `"event":"fail"`)
			partial, _ := c.must("merge", "-partial", "work/shard0.json", "work/shard2.json")
			contains(t, "partial", partial, "PARTIAL results: 2/3 shards present (missing shards: 1)")
			contains(t, "shard0.json", c.read(c.path("work/shard0.json")), "tailq")
			merged, _ := c.must("merge", "work/shard0.json", "work/shard1.json", "work/shard2.json")
			same(t, "merged", unshardedTailQ, merged)
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			sc.run(t, newCLI(t))
		})
	}
}

// waitAddr polls for the address file serve writes once it listens.
func waitAddr(t *testing.T, c *cli, name string) string {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		if data, err := os.ReadFile(c.path(name)); err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data))
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never wrote %s", name)
		}
		time.Sleep(200 * time.Millisecond)
	}
}
