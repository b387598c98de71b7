package main

// The work subcommand: a coordinator client that wraps the same local
// worker "ioschedbench dispatch" uses. It registers with a coordinator,
// heartbeats, leases units, computes them on a warm "tasks" child of
// this binary (or of -bin), and pushes the result files back over the
// wire — no shared filesystem with the coordinator.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"repro/internal/coord"
	"repro/internal/dispatch"
	"repro/internal/shard"
)

func runWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	cf := registerCacheFlags(fs)
	codecF := registerCodecFlag(fs)
	var (
		connect  = fs.String("connect", "", "coordinator base URL, e.g. http://host:8337 (required)")
		name     = fs.String("name", "", "worker name reported to the coordinator (default: hostname)")
		parallel = fs.Int("parallel", 0, "goroutines per unit, forwarded to the compute child (0 = one per CPU); never changes results")
		bin      = fs.String("bin", "", "compute binary, run as one warm \"<bin> tasks\" child that must speak the tasks protocol (default: this binary)")
		scratch  = fs.String("scratch", "", "local directory for result files before they are pushed (default: fresh temp dir)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ioschedbench work -connect http://host:8337")
		fmt.Fprintln(os.Stderr, "\nServes a coordinator as one worker: lease units, compute them on a")
		fmt.Fprintln(os.Stderr, "warm child process, push the results back. Runs until interrupted.")
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
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = host
	}
	binary := *bin
	if binary == "" {
		own, err := os.Executable()
		if err != nil {
			return fmt.Errorf("locating own binary (use -bin): %w", err)
		}
		binary = own
	}
	codec, err := shard.ParseEncoding(*codecF)
	if err != nil {
		return err
	}
	var extra []string
	if *parallel > 0 {
		extra = append(extra, "-parallel", strconv.Itoa(*parallel))
	}
	if cdir := cf.resolvedDir(); cdir != "" {
		// The cell cache is host-local, exactly as under dispatch: hits are
		// byte-identical to recomputation, so it never changes what is
		// pushed.
		extra = append(extra, "-cache-dir", cdir)
	}
	if codec != shard.EncodingJSON {
		// Host-local like the cache: the coordinator stores pushed files
		// verbatim and decodes either encoding, so this only shrinks what
		// travels over the wire.
		extra = append(extra, "-codec", codec)
	}

	logger := log.New(os.Stderr, "ioschedbench: work: ", 0)
	w := &dispatch.LocalProcWorker{
		Binary:    binary,
		ExtraArgs: extra,
		Stderr:    os.Stderr,
		Label:     *name,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = coord.RunWorker(ctx, &coord.Client{BaseURL: *connect}, *name, w, coord.WorkerOptions{
		ScratchDir: *scratch,
		Logf:       logger.Printf,
	})
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
