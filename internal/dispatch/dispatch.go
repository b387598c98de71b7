package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
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
	// RetryDelay pauses a failed shard before it is re-queued, so a pool
	// whose failures are transient (a rebooting host) does not burn its
	// attempt budget in milliseconds. 0 re-queues immediately.
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
// coordinator loop.
type outcome struct {
	Task
	u         *Unit
	attempt   int
	steal     bool
	workerIdx int
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
		Logf: func(format string, args ...any) { logf("dispatch: "+format, args...) },
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
		if err := run(ctx, l, workers, opts, res); err != nil {
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

// run drains the ledger's queue through the worker pool: a pull-based
// work queue where the coordinator loop hands each attempt to an idle
// worker explicitly rather than letting workers race on a shared queue.
// That is what lets a retry prefer a worker that has not already failed
// the unit — a single dead worker cannot consume a unit's whole attempt
// budget while healthy workers sit idle — and what lets idle workers
// steal a second copy of a straggling batch once the queue drains
// (Options.Steal).
func run(ctx context.Context, l *Ledger, workers []Worker, opts Options, res *Result) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan outcome)
	// Sized so a delayed requeue never blocks: at most one per failed
	// attempt of every queued unit and its split children.
	requeue := make(chan *Unit, len(l.pending)*l.maxAttempts*2+len(workers)+1)
	var wg sync.WaitGroup

	// failedOn records the pool indices of workers whose attempt at a unit
	// failed, so retries prefer a different worker.
	failedOn := make(map[*Unit]map[int]bool)
	freshWorker := func(u *Unit, idle []int) int {
		for ii, wi := range idle {
			if !failedOn[u][wi] {
				return ii
			}
		}
		return -1
	}
	idle := make([]int, len(workers))
	for i := range idle {
		idle[i] = i
	}
	// assign starts an attempt at u on idle worker ii; its goroutine
	// reports back on results.
	assign := func(u *Unit, ii int, steal bool) {
		wi := idle[ii]
		idle = slices.Delete(idle, ii, ii+1)
		t, att := l.Start(u, workers[wi].Name(), steal)
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := outcome{Task: t, u: u, attempt: att, steal: steal, workerIdx: wi}
			o.file, o.err = runAttempt(runCtx, workers[wi], l, u, t, opts.AttemptTimeout)
			select {
			case results <- o:
			case <-runCtx.Done():
			}
		}()
	}

	// tryAssign hands queued units to idle workers, preferring for each a
	// worker that has not failed it yet; units whose only fresh workers
	// are busy stay queued until one frees up. With the queue drained and
	// Steal on, leftover idle workers take a second copy of the heaviest
	// single-copy straggler (ties: earliest started, then lowest id).
	tryAssign := func() {
		for assigned := true; assigned && len(idle) > 0; {
			assigned = false
			for _, u := range l.pending {
				pick := freshWorker(u, idle)
				if pick == -1 && len(failedOn[u]) >= len(workers) {
					pick = 0 // every worker failed it once; anyone may retry
				}
				if pick != -1 {
					assign(u, pick, false)
					assigned = true
					break
				}
			}
		}
		if !opts.Steal || len(l.pending) > 0 {
			return
		}
		for len(idle) > 0 {
			var target *Unit
			pick := -1
			for _, u := range l.units {
				if u.done || u.split || len(u.inflight) != 1 || u.attempts >= l.maxAttempts {
					continue
				}
				wpick := freshWorker(u, idle)
				if wpick == -1 {
					continue
				}
				if target == nil || u.weight > target.weight ||
					(u.weight == target.weight && u.started.Before(target.started)) {
					target, pick = u, wpick
				}
			}
			if target == nil {
				return
			}
			assign(target, pick, true)
		}
	}

	// The auto-partial ticker shares the coordinator loop, so it reads the
	// ledger race-free between completions.
	var partialTick <-chan time.Time
	if opts.PartialEvery > 0 {
		ticker := time.NewTicker(opts.PartialEvery)
		defer ticker.Stop()
		partialTick = ticker.C
	}
	partialSaved := -1 // done-count at the last successful write
	// savePartial merges the validated shard files completed so far into
	// partial.json.
	savePartial := func() {
		var have []*shard.File
		for _, u := range l.units {
			if u.done {
				have = append(have, u.file)
			}
		}
		if len(have) == partialSaved || len(have) == 0 || len(have) == len(l.units) {
			// Nothing new since the last write, nothing yet, or the final
			// merge is about to supersede the cover.
			return
		}
		path := filepath.Join(opts.Dir, partialFileName)
		cover, err := shard.MergePartial(have)
		if err == nil {
			// Write-then-rename: the file is documented as renderable at
			// any moment, so a concurrent "merge -partial" must never
			// observe a truncated in-place rewrite.
			if err = cover.File.WriteFileAs(path+".tmp", opts.Codec); err == nil {
				err = os.Rename(path+".tmp", path)
			}
		}
		if err != nil {
			// A failed provisional write must not kill the sweep it
			// observes; the next tick retries. Its event keeps it visible
			// where Logf is off (the CLI's -progress mode).
			l.logf("partial merge: %v", err)
			l.record(ProgressEvent{Kind: ProgressPartial, Shard: -1, Err: err.Error()})
			return
		}
		partialSaved = len(have)
		present, cells := len(cover.Present), cover.CellsHave()
		l.record(ProgressEvent{Kind: ProgressPartial, Shards: present, Shard: -1, File: path, Cells: cells})
		l.logf("partial merge: %d/%d shards (%d cells) written to %s", present, l.spec.Shards, cells, path)
	}

	tryAssign()
	var fatal error
	for !l.Finished() && fatal == nil {
		select {
		case <-ctx.Done():
			fatal = ctx.Err()
		case <-partialTick:
			savePartial()
		case u := <-requeue:
			l.Requeue(u)
			tryAssign()
		case o := <-results:
			idle = append(idle, o.workerIdx)
			worker := workers[o.workerIdx].Name()
			a := Attempt{Shard: o.u.id, Attempt: o.attempt, Steal: o.steal, Worker: worker}
			if o.err != nil {
				a.Err = o.err.Error()
			}
			res.Attempts = append(res.Attempts, a)
			if o.err == nil {
				if l.Complete(o.u, o.attempt, worker, o.Out, o.file) {
					res.Ran++
				}
				tryAssign()
				continue
			}
			verdict, children := l.Fail(o.u, o.attempt, worker, o.err)
			if failedOn[o.u] == nil {
				failedOn[o.u] = make(map[int]bool)
			}
			failedOn[o.u][o.workerIdx] = true
			switch verdict {
			case FailExhausted:
				fatal = fmt.Errorf("dispatch: shard %d failed all %d attempts, last on %s: %w",
					o.u.id, o.attempt, worker, o.err)
				continue
			case FailSplit:
				for _, c := range children {
					failedOn[c] = maps.Clone(failedOn[o.u])
				}
			case FailRequeue:
				if opts.RetryDelay > 0 {
					go func(u *Unit) {
						select {
						case <-time.After(opts.RetryDelay):
							requeue <- u
						case <-runCtx.Done():
						}
					}(o.u)
				} else {
					l.Requeue(o.u)
				}
			}
			tryAssign()
		}
	}
	cancel()
	wg.Wait()
	return fatal
}

// runAttempt runs one attempt under the per-attempt timeout and validates
// the produced file, returning its decoded form on success.
func runAttempt(ctx context.Context, w Worker, l *Ledger, u *Unit, t Task, timeout time.Duration) (*shard.File, error) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// Drop any partial file a previous attempt left, so validation can
	// never accept stale output.
	if err := os.Remove(t.Out); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	var f *shard.File
	err := w.Run(actx, t)
	if err == nil {
		f, err = l.Validate(u, t.Out)
	}
	if err != nil && actx.Err() != nil && ctx.Err() == nil {
		return nil, fmt.Errorf("dispatch: attempt exceeded the %v timeout: %w", timeout, err)
	}
	return f, err
}
