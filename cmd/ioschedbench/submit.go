package main

// The submit subcommand: the sweep client of a coordinator. It submits
// a run (or attaches to one), optionally follows the progress stream,
// and renders the merged result exactly as the unsharded run would
// have — the coordinator path keeps the same byte-identity contract as
// merge and dispatch.

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/coord"
	"repro/internal/dispatch"
	"repro/internal/shard"
)

func runSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	rf := registerRunFlags(fs)
	var (
		connect = fs.String("connect", "", "coordinator base URL, e.g. http://host:8337 (required)")
		shards  = fs.Int("shards", 2, "work units to split the sweep into")
		balance = fs.String("balance", dispatch.BalanceRoundRobin, "cell decomposition: \"roundrobin\" or \"cost\"")
		runID   = fs.String("run", "", "attach to this existing run instead of submitting a new one (run flags are ignored)")
		wait    = fs.Bool("wait", false, "follow the run and render the merged result when it completes (otherwise print the run id and return)")
		out     = fs.String("out", "", "also write the merged cell file to this path (with -wait; a valid 1-shard file)")
		csvDir  = fs.String("csv", "", "directory to write CSV result files into (with -wait)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ioschedbench submit -connect http://host:8337 [-wait] [run flags]")
		fmt.Fprintln(os.Stderr, "\nSubmits a sweep to a coordinator. With -wait, streams progress to stderr")
		fmt.Fprintln(os.Stderr, "and renders the merged result — byte-identical to the unsharded run —")
		fmt.Fprintln(os.Stderr, "once every unit completes. Without it, prints the run id.")
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
	if *connect == "" {
		fs.Usage()
		return fmt.Errorf("-connect is required")
	}

	logger := log.New(os.Stderr, "ioschedbench: submit: ", 0)
	cl := &coord.Client{BaseURL: *connect}
	ctx := context.Background()

	id := *runID
	if id == "" {
		params, err := rf.shardParams()
		if err != nil {
			return err
		}
		id, err = cl.Submit(ctx, coord.SubmitRequest{
			Selection: *rf.which, Params: params, Shards: *shards, Balance: *balance,
		})
		if err != nil {
			return err
		}
		logger.Printf("submitted %q as %s (%d units, %s balance)", *rf.which, id, *shards, *balance)
	}
	if !*wait {
		// The id is the output: scripts capture it and attach later with
		// "submit -run <id> -wait".
		fmt.Println(id)
		return nil
	}

	// Follow the event stream until the run reaches a terminal state. The
	// coordinator replays history first, so attaching late (or after a
	// coordinator restart) loses nothing.
	err := cl.Events(ctx, id, func(e dispatch.ProgressEvent) {
		switch e.Kind {
		case dispatch.ProgressPlan:
			logger.Printf("%s: planned, %d shards requested", id, e.Shards)
		case dispatch.ProgressResumed:
			logger.Printf("%s: unit %d resumed from the journal", id, e.Shard)
		case dispatch.ProgressAttempt:
			logger.Printf("%s: unit %d attempt %d on %s", id, e.Shard, e.Attempt, e.Worker)
		case dispatch.ProgressDone:
			logger.Printf("%s: unit %d done (%d cells)", id, e.Shard, e.Cells)
		case dispatch.ProgressFailed:
			logger.Printf("%s: unit %d attempt %d failed: %s", id, e.Shard, e.Attempt, e.Err)
		case dispatch.ProgressMerged:
			logger.Printf("%s: merged (%d cells)", id, e.Cells)
		}
	})
	if err != nil {
		return err
	}
	st, err := cl.Run(ctx, id)
	if err != nil {
		return err
	}
	if st.State != "merged" {
		return fmt.Errorf("run %s ended %q: %s", id, st.State, st.Failure)
	}

	// Fetch the merged cover and render it through the same path merge
	// and dispatch use — that shared path is the byte-identity guarantee.
	data, err := cl.Result(ctx, id)
	if err != nil {
		return err
	}
	merged, err := shard.Decode(data)
	if err != nil {
		return fmt.Errorf("run %s result: %w", id, err)
	}
	if *out != "" {
		if err := merged.WriteFile(*out); err != nil {
			return err
		}
	}
	return renderMerged(merged, *csvDir)
}
