package main

// The dispatch subcommand: fan a sharded run out to a pool of workers,
// retry lost or corrupt shards, and render the merged result exactly as
// the unsharded run would have. See internal/dispatch for the driver and
// docs/SHARD_FORMAT.md for the file format it moves around.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/shard"
)

// runDispatch drives a whole sharded sweep from one invocation:
//
//	ioschedbench dispatch -workers 3 -retries 2 [run flags]
//	ioschedbench dispatch -worker 'ssh h1 ioschedbench {args} -out /dev/stdout' ...
//
// Local workers re-execute this binary; -worker templates replace them
// for remote or wrapped execution. Progress and retries go to stderr;
// stdout carries only the rendered results, byte-identical to the
// unsharded run.
func runDispatch(args []string) error {
	fs := flag.NewFlagSet("dispatch", flag.ExitOnError)
	rf := registerRunFlags(fs)
	cf := registerCacheFlags(fs)
	codecF := registerCodecFlag(fs)
	var cmds []string
	var (
		workers      = fs.Int("workers", 2, "local worker subprocesses (ignored when -worker is given)")
		retries      = fs.Int("retries", 2, "retries per shard after its first failed attempt")
		timeout      = fs.Duration("timeout", 0, "per-attempt time budget (0 = none); an attempt over budget is killed and retried")
		delay        = fs.Duration("retry-delay", 0, "pause before re-queueing a failed shard")
		dir          = fs.String("dir", "", "working directory for shard and journal files (default: fresh temp dir; set it to resume an interrupted dispatch)")
		shards       = fs.Int("shards", 0, "shard count (0 = one per worker)")
		parallel     = fs.Int("parallel", 0, "per-worker goroutines, forwarded to local workers; never changes results")
		csvDir       = fs.String("csv", "", "directory to write CSV result files into")
		out          = fs.String("out", "", "also write the merged cell file to this path (a valid 1-shard file)")
		progress     = fs.Bool("progress", false, "live status line on stderr (done/running/failed counts and an ETA) instead of per-event log lines")
		partialEvery = fs.Duration("partial-every", 0, "periodically merge the shards completed so far into <dir>/partial.json for \"merge -partial\" (requires -dir)")
		balance      = fs.String("balance", dispatch.BalanceRoundRobin, "cell decomposition: \"roundrobin\" (fixed (point*systems+system) mod shards shares) or \"cost\" (cost-packed cell batches, refined by observed wall-clock on resume)")
		steal        = fs.Bool("steal", false, "let idle workers steal duplicate attempts at straggling shards (first completion wins; duplicates are discarded by cell key)")
	)
	fs.Func("worker", "command template run once per shard (repeatable; placeholders {args} {index} {shards} {out}); replaces the local worker pool; split on whitespace — no quoting, so arguments cannot contain spaces (wrap complex commands in a script)", func(s string) error {
		if strings.TrimSpace(s) == "" {
			return fmt.Errorf("empty -worker template")
		}
		cmds = append(cmds, s)
		return nil
	})
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ioschedbench dispatch [flags]")
		fmt.Fprintln(os.Stderr, "\nRuns the selected experiments as N shards on a pool of workers, retries")
		fmt.Fprintln(os.Stderr, "lost/failed/timed-out shards, merges, and renders output byte-identical")
		fmt.Fprintln(os.Stderr, "to the unsharded run.")
		fmt.Fprintln(os.Stderr)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	params, err := rf.shardParams()
	if err != nil {
		return err
	}
	codec, err := shard.ParseEncoding(*codecF)
	if err != nil {
		return err
	}
	cache, err := cf.open()
	if err != nil {
		return err
	}

	var pool []dispatch.Worker
	if len(cmds) > 0 {
		for i, tmpl := range cmds {
			pool = append(pool, &dispatch.CmdWorker{
				Argv:   strings.Fields(tmpl),
				Stderr: os.Stderr,
				Label:  fmt.Sprintf("cmd[%d]", i),
			})
		}
	} else {
		if *workers < 1 {
			return fmt.Errorf("-workers %d: need at least one worker", *workers)
		}
		bin, err := os.Executable()
		if err != nil {
			return fmt.Errorf("locating own binary for local workers: %w", err)
		}
		// -parallel 0 means one goroutine per CPU *per subprocess*; with N
		// local workers that would oversubscribe the host N-fold, so split
		// the CPUs across the pool instead. Results are unchanged either
		// way — parallelism never affects them.
		per := *parallel
		if per == 0 {
			if per = runtime.NumCPU() / *workers; per < 1 {
				per = 1
			}
		}
		extra := []string{"-parallel", strconv.Itoa(per)}
		if cdir := cf.resolvedDir(); cdir != "" {
			// Local workers share the cache: each deposits the cells it
			// computes and reuses what overlapping runs left (host-local,
			// like -parallel — never part of the run identity).
			extra = append(extra, "-cache-dir", cdir)
		}
		if codec != shard.EncodingJSON {
			// Forward the write encoding to local workers; validation and
			// merge auto-detect, so this only shrinks the shard files.
			extra = append(extra, "-codec", codec)
		}
		for i := 0; i < *workers; i++ {
			pool = append(pool, &dispatch.LocalProcWorker{
				Binary:    bin,
				ExtraArgs: extra,
				Stderr:    os.Stderr,
				Label:     fmt.Sprintf("local[%d]", i),
			})
		}
	}

	n := *shards
	if n == 0 {
		n = len(pool)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries %d: must be >= 0", *retries)
	}

	logger := log.New(os.Stderr, "ioschedbench: ", 0)
	opts := dispatch.Options{
		MaxAttempts:    *retries + 1,
		AttemptTimeout: *timeout,
		RetryDelay:     *delay,
		Dir:            *dir,
		Logf:           logger.Printf,
		PartialEvery:   *partialEvery,
		Cache:          cache,
		Balance:        *balance,
		Steal:          *steal,
		Codec:          codec,
	}
	if *progress {
		// The live line redraws in place; the per-event log lines would
		// tear it, so the journal keeps the event history instead.
		opts.Logf = nil
		opts.Progress = progressLine(os.Stderr)
	}
	res, err := dispatch.Run(context.Background(),
		dispatch.Spec{Selection: *rf.which, Params: params, Shards: n},
		pool, opts)
	if *progress {
		// Terminate the redrawn line before any summary or error output
		// lands on the same terminal row.
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	// The steal suffix only appears when stealing actually happened, so the
	// classic summary stays stable for scripts that match on it.
	extraSummary := ""
	if res.Steals > 0 {
		extraSummary = fmt.Sprintf(", %d steals (%d duplicates discarded)", res.Steals, res.Duplicates)
	}
	logger.Printf("dispatch: %d shards done (%d resumed, %d cached, %d run, %d retries%s) in %s",
		res.Shards, res.Resumed, res.Cached, res.Ran, res.Retries, extraSummary, summaryDir(res.Dir))
	if cache != nil {
		st := cache.Stats()
		logger.Printf("dispatch: cell cache: %d hits, %d misses (%.0f%% hit rate)",
			st.Hits, st.Misses, 100*st.HitRate())
	}
	if *out != "" {
		if err := res.Merged.WriteFileAs(*out, codec); err != nil {
			return err
		}
	}
	return renderMerged(res.Merged, *csvDir)
}

// summaryDir names the working directory for the completion log line.
func summaryDir(dir string) string {
	if dir == "" {
		return "a temporary directory (removed)"
	}
	return dir
}

// progressLine returns a Progress handler that folds the event stream
// through a Tracker and redraws one status line in place on w. Events
// arrive from multiple goroutines; the tracker's lock orders them and the
// handler's own mutex keeps the redraws whole.
func progressLine(w io.Writer) func(dispatch.ProgressEvent) {
	tr := dispatch.NewTracker()
	var mu sync.Mutex
	prev := 0
	return func(e dispatch.ProgressEvent) {
		// Observe, snapshot and print under one lock, so a descheduled
		// handler cannot overwrite a newer snapshot with an older one.
		mu.Lock()
		defer mu.Unlock()
		tr.Observe(e)
		if e.Kind == dispatch.ProgressPartial && e.Err != "" {
			// With -progress the per-event log is off; a failing
			// auto-partial write must still reach the operator, on its
			// own committed line so the redrawn status survives below it.
			fmt.Fprintf(w, "\r%-*s\n", prev, "dispatch: partial merge failed: "+e.Err)
			prev = 0
		}
		s := tr.Snapshot()
		line := fmt.Sprintf("dispatch: %d/%d done, %d running, %d failed", s.Done, s.Total, s.Running, s.Failed)
		if s.Resumed > 0 {
			line += fmt.Sprintf(" (%d resumed)", s.Resumed)
		}
		if s.Steals > 0 {
			line += fmt.Sprintf(", %d steals", s.Steals)
		}
		if s.ETA > 0 {
			line += ", ETA " + s.ETA.Round(time.Second).String()
		}
		if s.Merged {
			line += ", merged"
		}
		// Pad over the previous line's full width, so a shorter redraw
		// never leaves the old tail on the terminal.
		width := len(line)
		if prev > width {
			width = prev
		}
		prev = len(line)
		fmt.Fprintf(w, "\r%-*s", width, line)
	}
}
