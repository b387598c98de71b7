package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/cellcache"
	"repro/internal/experiment"
	"repro/internal/shard"
)

// Spec describes one dispatched run: which experiment selection, with
// which parameters, split into how many shards.
type Spec struct {
	// Selection is the experiment selection ("all" or one grid
	// experiment's name); "" means "all".
	Selection string
	// Params is the run parameterisation recorded in every shard file.
	// The driver normalises it (experiment.ShardParams.Normalised), so
	// zero values select the same defaults the CLI's flags do.
	Params experiment.ShardParams
	// Shards is the number of shards the run is split into.
	Shards int
}

// The balance modes: how the driver decomposes the selection's cells into
// units of dispatched work.
const (
	// BalanceRoundRobin is the classic decomposition — one shard per
	// index, each owning the cells with (point·systems + system) mod
	// shards == index. The default; "" selects it.
	BalanceRoundRobin = "roundrobin"
	// BalanceCost packs cells into batches of near-equal predicted cost
	// (experiment.PlanSelection's per-cell model, refined by observed
	// wall-clock from a prior journal on resume). The merged result is
	// byte-identical to round-robin's: decompositions only move cells
	// between workers, never change them.
	BalanceCost = "cost"
)

// normalisedBalance resolves and validates a balance mode ("" means
// round-robin).
func normalisedBalance(b string) (string, error) {
	switch b {
	case "", BalanceRoundRobin:
		return BalanceRoundRobin, nil
	case BalanceCost:
		return BalanceCost, nil
	}
	return "", fmt.Errorf("dispatch: unknown balance %q (want %q or %q)", b, BalanceRoundRobin, BalanceCost)
}

// normalised validates the spec and returns it with the selection and
// params resolved, alongside the compact params JSON every shard file of
// the run must record and the canonical run names of the selection.
func (s Spec) normalised() (Spec, []byte, []string, error) {
	if s.Selection == "" {
		s.Selection = experiment.ExpAll
	}
	runNames, err := experiment.SelectionRuns(s.Selection)
	if err != nil {
		return Spec{}, nil, nil, err
	}
	if _, err := shard.NewPlan(s.Shards, 0); err != nil {
		return Spec{}, nil, nil, err
	}
	if s.Shards > shard.MaxCells {
		// The journal reader refuses larger plans (journalread.go).
		return Spec{}, nil, nil, fmt.Errorf("dispatch: %d shards, more than %d", s.Shards, shard.MaxCells)
	}
	s.Params = s.Params.Normalised()
	params, err := json.Marshal(s.Params)
	if err != nil {
		return Spec{}, nil, nil, fmt.Errorf("dispatch: encode params: %w", err)
	}
	return s, params, runNames, nil
}

// baseArgs returns the ioschedbench run flags shared by every worker
// invocation of the spec — selection and parameters with every default
// resolved, without any decomposition flags. It returns an error for
// params no ioschedbench flag can express (multi-device or motivation
// overrides), so a library-configured spec that a CLI worker could not
// reproduce fails before any work is dispatched rather than at params
// validation after it.
func (s Spec) baseArgs() ([]string, error) {
	p := s.Params.Normalised()
	base := experiment.ShardParams{Seed: p.Seed, PaperScale: p.PaperScale}.Normalised()
	if p.MultiDeviceU != base.MultiDeviceU || p.MotivationWrites != base.MotivationWrites ||
		fmt.Sprint(p.MultiDeviceCounts) != fmt.Sprint(base.MultiDeviceCounts) {
		return nil, fmt.Errorf("dispatch: params override multi-device or motivation settings that have no ioschedbench flag")
	}
	args := []string{
		"-experiment", s.Selection,
		"-seed", strconv.FormatInt(p.Seed, 10),
		"-systems", strconv.Itoa(p.Systems),
		"-gapop", strconv.Itoa(p.GAPopulation),
		"-gagens", strconv.Itoa(p.GAGenerations),
		"-ablation-u", strconv.FormatFloat(p.AblationU, 'g', -1, 64),
	}
	if p.PaperScale {
		args = append(args, "-paperscale")
	}
	return args, nil
}

// WorkerArgs returns the ioschedbench command-line arguments that make a
// worker process evaluate shard index of the spec: the run flags with
// every default resolved, plus -shards/-shard-index. The output flag is
// deliberately absent — LocalProcWorker appends "-out <path>" and
// CmdWorker templates choose their own file contract — as is -parallel,
// which is host-local and never changes results.
func (s Spec) WorkerArgs(index int) ([]string, error) {
	args, err := s.baseArgs()
	if err != nil {
		return nil, err
	}
	return append(args, "-shards", strconv.Itoa(s.Shards), "-shard-index", strconv.Itoa(index)), nil
}

// BatchWorkerArgs returns the ioschedbench arguments that make a worker
// evaluate exactly the cells of the given cell spec
// (shard.FormatCellSpec) — the balanced dispatch counterpart of
// WorkerArgs, producing a cell-batch file instead of a round-robin shard.
func (s Spec) BatchWorkerArgs(cellSpec string) ([]string, error) {
	args, err := s.baseArgs()
	if err != nil {
		return nil, err
	}
	return append(args, "-cells", cellSpec), nil
}

// Options tunes the driver; the zero value is a sensible default.
type Options struct {
	// MaxAttempts bounds how often one shard is tried before the whole
	// dispatch fails; <= 0 selects 3 (one run plus two retries). Steal
	// attempts count against the same budget.
	MaxAttempts int
	// AttemptTimeout bounds one attempt's wall-clock time; an attempt
	// over budget is killed (via its context) and re-queued like any
	// other failure. 0 means no per-attempt bound.
	AttemptTimeout time.Duration
	// RetryDelay pauses a failed shard before it is retried, so a pool
	// whose failures are transient (a rebooting host) does not burn its
	// attempt budget in milliseconds. 0 retries immediately.
	RetryDelay time.Duration
	// Balance selects the decomposition: BalanceRoundRobin (default) or
	// BalanceCost.
	Balance string
	// Steal lets idle workers start a second concurrent copy of the
	// heaviest still-running batch once the queue drains. The first
	// completion wins; the duplicate is discarded (never merged twice —
	// batches are deduplicated by cell key). Stolen copies write
	// <path>.s<attempt>, so concurrent attempts never collide on a file.
	Steal bool
	// Dir is the working directory for the shard files and the journal.
	// "" uses a fresh temporary directory that is removed after a
	// successful merge — set Dir to keep the files and to make an
	// interrupted dispatch resumable.
	Dir string
	// Logf receives structured progress and retry lines; nil discards
	// them. It is called from multiple goroutines and must be safe for
	// concurrent use (log.Printf and friends are).
	Logf func(format string, args ...any)
	// Progress receives the typed progress-event stream (schema version
	// ProgressVersion): exactly the events the journal records — plan,
	// batch, resumed, cached, attempt, steal, done, fail, partial and
	// merged — suitable for live status displays (feed them to a
	// Tracker) without parsing log lines. Events arrive in journal order
	// from one goroutine per dispatch; a handler shared between
	// dispatches must be safe for concurrent use. nil disables the
	// stream.
	Progress func(ProgressEvent)
	// PartialEvery, when > 0, periodically merges the shards completed so
	// far into <Dir>/partial.json — a provisional partial cover file that
	// "ioschedbench merge -partial" (or shard.MergePartial) renders while
	// the dispatch is still running, and that a MergePartial over the
	// remaining shards grows into the full, byte-identical result. The
	// file is refreshed in place and removed after the final merge.
	// Requires Dir (a temporary working directory would discard it) and
	// round-robin balance (partial merges read classic shard files).
	PartialEvery time.Duration
	// Cache, when non-nil, is the cell cache consulted before a shard is
	// queued: a shard whose cells the cache fully holds is written from
	// the cache (journaled as "cached") instead of dispatched to a
	// worker, and every validated worker output is deposited back, so
	// overlapping runs recompute only their frontier. The cached file is
	// re-validated exactly like a worker's before it is accepted.
	Cache *cellcache.Store
	// Codec selects the encoding of the files this driver itself writes —
	// cache-materialised shard/batch files and the periodic partial cover
	// (shard.EncodingJSON when ""). It does not constrain the workers:
	// worker outputs are accepted in either encoding (shard.ReadFile
	// auto-detects), so a pool can mix -codec settings freely.
	Codec string
}

// Attempt records one worker attempt at one shard or batch.
type Attempt struct {
	// Shard and Attempt identify the try: attempt n is the n-th time this
	// shard ran, starting at 1.
	Shard   int
	Attempt int
	// Steal marks a duplicate attempt started by work stealing.
	Steal bool
	// Worker is the name of the worker that ran it.
	Worker string
	// Err is the failure ("" for success): the worker's error, or the
	// validation error for a corrupt or partial file.
	Err string
}

// Result reports a completed dispatch.
type Result struct {
	// Merged is the complete single-shard equivalent file — byte-identical
	// (once encoded) to what the unsharded run would have produced.
	Merged *shard.File
	// Dir is the working directory holding the shard files and journal;
	// "" if the driver used (and removed) a temporary directory.
	Dir string
	// ShardPaths are the per-shard (or per-batch) winning file paths in
	// id order; nil if the working directory was temporary.
	ShardPaths []string
	// Shards counts the units merged: the shard count for a round-robin
	// dispatch, the (possibly re-split) batch count for a balanced one.
	Shards int
	// Resumed counts shards satisfied from the journal without running;
	// Cached counts shards satisfied from the cell cache without running;
	// Ran counts the units a worker completed in this invocation, so
	// Shards = Resumed + Cached + Ran; Retries counts failed attempts that
	// were re-queued.
	Resumed, Cached, Ran, Retries int
	// Steals counts duplicate attempts started by work stealing;
	// Duplicates counts completions discarded because another copy won.
	Steals, Duplicates int
	// Attempts is the full attempt log of this invocation, in completion
	// order.
	Attempts []Attempt
}

// outcome is one finished attempt, sent from its goroutine to the
// driver loop.
type outcome struct {
	Task
	u       *Unit
	attempt int
	steal   bool
	slot    int
	// file is the decoded, validated file of a successful attempt; the
	// ledger merges these directly rather than re-reading the paths.
	file *shard.File
	err  error
}

// Run dispatches the spec's work across the worker pool and returns the
// merged result. Each unit is attempted up to Options.MaxAttempts times —
// an attempt fails if the worker errors, exceeds Options.AttemptTimeout,
// or leaves a file that fails validation — and any worker may pick up the
// retry. The merged output is byte-identical to the unsharded run for
// every decomposition: cells derive their randomness from their grid
// position, so a retried, stolen or re-split unit reproduces exactly the
// cells the lost one would have held.
//
// With Options.Dir set, progress survives interruption: completed shards
// are recorded in a journal, and a later Run over the same directory
// re-validates and skips them, executing only the missing cells.
//
// Run fails if any shard exhausts its attempts, if the context is
// cancelled, or if the directory's journal belongs to a different run.
// On every return it calls Release on each worker that has one
// (LocalProcWorker), so no warm child outlives the dispatch.
func Run(ctx context.Context, spec Spec, workers []Worker, opts Options) (*Result, error) {
	balance, err := normalisedBalance(opts.Balance)
	if err != nil {
		return nil, err
	}
	codec, err := shard.ParseEncoding(opts.Codec)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	opts.Codec = codec
	if len(workers) == 0 {
		return nil, fmt.Errorf("dispatch: no workers")
	}
	defer release(workers)
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.PartialEvery > 0 && opts.Dir == "" {
		return nil, fmt.Errorf("dispatch: PartialEvery needs a persistent Dir to write partial merges into")
	}
	if opts.PartialEvery > 0 && balance != BalanceRoundRobin {
		return nil, fmt.Errorf("dispatch: PartialEvery requires round-robin balance (partial merges read classic shard files)")
	}

	// The ledger knows each worker by its pool slot: two workers of one
	// name stay two workers.
	slots := make([]string, len(workers))
	for i := range slots {
		slots[i] = strconv.Itoa(i)
	}
	dir, tempDir := opts.Dir, false
	if dir == "" {
		if dir, err = os.MkdirTemp("", "ioschedbench-dispatch-"); err != nil {
			return nil, fmt.Errorf("dispatch: %w", err)
		}
		tempDir = true
		defer os.RemoveAll(dir)
	}
	l, err := OpenLedger(LedgerConfig{
		Spec: spec, Balance: balance, Dir: dir, MaxAttempts: opts.MaxAttempts,
		Cache: opts.Cache, Codec: codec, Now: time.Now, Emit: opts.Progress,
		Logf:  func(format string, args ...any) { logf("dispatch: "+format, args...) },
		Steal: opts.Steal, RetryDelay: opts.RetryDelay, AttemptTimeout: opts.AttemptTimeout,
		Live: slices.Values(slots),
	})
	if err != nil {
		return nil, err
	}
	// Close is idempotent; this covers the error-return paths, while the
	// success path below closes explicitly so journal write errors are
	// never swallowed (losing resume state silently would betray the
	// journal's contract).
	defer l.Close()

	res := &Result{Dir: dir}
	if !l.Finished() {
		if err := run(ctx, l, workers, slots, opts, res); err != nil {
			return nil, err
		}
	}
	merged, err := l.Merge("")
	if err != nil {
		return nil, err
	}
	for _, u := range l.mergeUnits() {
		res.ShardPaths = append(res.ShardPaths, u.filePath)
	}
	// The cover is complete: a stale auto-partial file would only invite
	// re-rendering a subset of a finished sweep. Unconditional — a resume
	// without PartialEvery must still clean up what an earlier, observed
	// invocation left behind.
	if err := os.Remove(filepath.Join(dir, partialFileName)); err != nil && !os.IsNotExist(err) {
		logf("dispatch: removing %s: %v", partialFileName, err)
	}
	if err := l.Close(); err != nil {
		return nil, fmt.Errorf("dispatch: journal: %w", err)
	}
	st := l.Stats()
	res.Merged, res.Shards = merged, len(res.ShardPaths)
	res.Resumed, res.Cached, res.Retries, res.Steals, res.Duplicates = st.Resumed, st.Cached, st.Retries, st.Steals, st.Duplicates
	if tempDir {
		res.Dir, res.ShardPaths = "", nil
	}
	return res, nil
}

// errAttemptTimeout ends an attempt the ledger reports expired.
var errAttemptTimeout = errors.New("attempt timeout")

// run drains the ledger through the worker pool: it hands each idle
// worker what the ledger's Next picks for its slot, runs the attempt in
// a goroutine and reports the outcome back. The ledger decides which
// unit a worker runs, when to steal, when a retry is due and when an
// attempt has timed out; one timer wakes the loop at the ledger's Wake.
func run(ctx context.Context, l *Ledger, workers []Worker, slots []string, opts Options, res *Result) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan outcome, len(workers)) // one attempt per slot: a send never blocks
	var wg sync.WaitGroup
	cancels := make([]context.CancelCauseFunc, len(workers)) // of each slot's running attempt; nil when idle

	// assign asks the ledger for work for each idle slot. It starts over
	// after each start: a start can make a steal possible for a slot
	// passed over.
	assign := func(now time.Time) {
		for slot := 0; slot < len(workers); slot++ {
			wi := slot
			if cancels[wi] != nil {
				continue
			}
			u, steal := l.Next(slots[wi], now)
			if u == nil {
				continue
			}
			t, att := l.Start(u, slots[wi], workers[wi].Name(), steal)
			actx, acancel := context.WithCancelCause(runCtx)
			cancels[wi] = acancel
			slot = -1
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := outcome{Task: t, u: u, attempt: att, steal: steal, slot: wi}
				o.file, o.err = runAttempt(actx, workers[wi], l, u, t, opts.AttemptTimeout)
				results <- o
			}()
		}
	}

	// The auto-partial ticker shares the driver loop, so the ledger reads
	// its units race-free between completions.
	var partialTick <-chan time.Time
	if opts.PartialEvery > 0 {
		ticker := time.NewTicker(opts.PartialEvery)
		defer ticker.Stop()
		partialTick = ticker.C
	}
	var fatal error
	for !l.Finished() && fatal == nil {
		now := time.Now()
		for _, c := range l.Expired(now) {
			cancels[slices.Index(slots, c.Worker)](errAttemptTimeout)
		}
		assign(now)
		var wake <-chan time.Time
		if at := l.Wake(now); !at.IsZero() {
			wake = time.After(at.Sub(now))
		}
		select {
		case <-ctx.Done():
			fatal = ctx.Err()
		case <-partialTick:
			l.SavePartial()
		case <-wake:
		case o := <-results:
			cancels[o.slot](nil)
			cancels[o.slot] = nil
			worker := workers[o.slot].Name()
			a := Attempt{Shard: o.u.id, Attempt: o.attempt, Steal: o.steal, Worker: worker}
			if o.err != nil {
				a.Err = o.err.Error()
			}
			res.Attempts = append(res.Attempts, a)
			if o.err == nil {
				if l.Complete(o.u, o.attempt, worker, o.Out, o.file) {
					res.Ran++
				}
			} else if v, _ := l.Fail(o.u, o.attempt, o.err); v == FailExhausted {
				fatal = fmt.Errorf("dispatch: shard %d failed all %d attempts, last on %s: %w",
					o.u.id, o.attempt, worker, o.err)
			}
		}
	}
	cancel()
	wg.Wait()
	return fatal
}

// runAttempt runs one attempt and validates the produced file, returning
// its decoded form on success.
func runAttempt(ctx context.Context, w Worker, l *Ledger, u *Unit, t Task, timeout time.Duration) (*shard.File, error) {
	// Drop any partial file a previous attempt left, so validation can
	// never accept stale output.
	if err := os.Remove(t.Out); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	var f *shard.File
	err := w.Run(ctx, t)
	if err == nil {
		f, err = l.Validate(u, t.Out)
	}
	if err != nil && context.Cause(ctx) == errAttemptTimeout {
		return nil, fmt.Errorf("dispatch: attempt exceeded the %v timeout: %w", timeout, err)
	}
	return f, err
}
