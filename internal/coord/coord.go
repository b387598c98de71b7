package coord

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/shard"
	"repro/internal/textplot"
)

// Options configures a Coordinator.
type Options struct {
	// HeartbeatTimeout is how long a worker may go silent before its
	// leases are reassigned (default 15s).
	HeartbeatTimeout time.Duration
	// LeaseTimeout, when positive, bounds how long one attempt at a unit
	// may stay leased before it is failed and requeued — the defence
	// against a worker that heartbeats but hangs mid-compute. 0 disables
	// it (a lost worker is still detected by heartbeat timeout).
	LeaseTimeout time.Duration
	// MaxAttempts bounds attempts per unit, counting reassignments
	// (default 3). When a unit exhausts it, the run fails.
	MaxAttempts int
	// SweepEvery is the liveness sweep interval (default
	// HeartbeatTimeout/4, min 10ms).
	SweepEvery time.Duration
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
	// Codec selects the encoding of the merged result file the
	// coordinator writes (shard.EncodingJSON when ""). Pushed unit files
	// are accepted in either encoding regardless — they are stored
	// verbatim and decoded through the auto-detecting reader. The merged
	// file keeps the name "merged.json" either way; the container magic,
	// not the name, identifies the format.
	Codec string
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 15 * time.Second
	}
	if o.SweepEvery <= 0 {
		o.SweepEvery = o.HeartbeatTimeout / 4
	}
	if o.SweepEvery < 10*time.Millisecond {
		o.SweepEvery = 10 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Codec == "" {
		o.Codec = shard.EncodingJSON
	}
	return o
}

// Run states.
const (
	runRunning = "running"
	runMerged  = "merged"
	runFailed  = "failed"
)

// run is one multiplexed sweep: its ledger, which also holds its leases
// as in-flight copies, plus the event subscribers. The run's journal is
// its event history.
type run struct {
	id  string
	dir string
	l   *dispatch.Ledger

	state   string
	failure string

	subs map[chan dispatch.ProgressEvent]struct{}
}

// workerState is one registered worker.
type workerState struct {
	id       string
	name     string
	lastBeat time.Time
}

// Coordinator is a long-running dispatch service: clients submit sweeps,
// workers lease units and push result files back over the wire, and the
// coordinator journals, reassigns, deduplicates and merges — the same
// guarantees as the in-process dispatcher, with the filesystem coupling
// replaced by HTTP.
type Coordinator struct {
	dir  string
	opts Options
	boot string // random per-process nonce embedded in worker ids

	mu      sync.Mutex
	wake    chan struct{} // closed+replaced when work may have appeared
	workers map[string]*workerState
	wseq    int
	pseq    int // push temp-file sequence
	runs    map[string]*run
	order   []string // run ids, submission order
	rseq    int

	closed   chan struct{}
	closeErr error
	once     sync.Once
	wg       sync.WaitGroup
}

// New opens (or creates) a coordinator over the given state directory,
// resuming every journaled run found under dir/runs, and starts the
// liveness sweeper. Call Close to stop it.
func New(dir string, opts Options) (*Coordinator, error) {
	if _, err := shard.ParseEncoding(opts.Codec); err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(abs, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	nonce := make([]byte, 3)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	c := &Coordinator{
		dir:     abs,
		boot:    hex.EncodeToString(nonce),
		opts:    opts.withDefaults(),
		wake:    make(chan struct{}),
		workers: make(map[string]*workerState),
		runs:    make(map[string]*run),
		closed:  make(chan struct{}),
	}
	if err := c.loadRuns(); err != nil {
		return nil, err
	}
	c.wg.Add(1)
	go c.sweeper()
	return c, nil
}

// Close stops the sweeper, closes every run's journal and wakes pending
// long-polls. Idempotent.
func (c *Coordinator) Close() error {
	c.once.Do(func() {
		close(c.closed)
		c.wg.Wait()
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, id := range c.order {
			r := c.runs[id]
			if err := r.l.Close(); err != nil && c.closeErr == nil {
				c.closeErr = err
			}
			r.endStreams()
		}
		c.wakeLocked()
	})
	return c.closeErr
}

// Dir returns the coordinator's absolute state directory.
func (c *Coordinator) Dir() string { return c.dir }

// RunDir returns the state directory of one run.
func (c *Coordinator) RunDir(runID string) string {
	return filepath.Join(c.dir, "runs", runID)
}

func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// terminalLocked marks a run merged or failed, closes its journal and
// ends its event streams. Caller holds c.mu.
func (c *Coordinator) terminalLocked(r *run, state, failure string) {
	r.state, r.failure = state, failure
	if err := r.l.Close(); err != nil {
		c.opts.Logf("coord: run %s: journal: %v", r.id, err)
	}
	r.endStreams()
}

// endStreams closes the run's event streams; no new one opens.
func (r *run) endStreams() {
	for ch := range r.subs {
		close(ch)
	}
	r.subs = nil
}

// ---- submission ----

// Submit creates a run for the given sweep and returns its id. The spec
// and balance are normalised and validated by the same ledger as
// dispatch.Run's; the run starts pending and is served to workers as
// they lease.
func (c *Coordinator) Submit(req SubmitRequest) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
		return "", fmt.Errorf("coord: coordinator is shut down")
	default:
	}
	id := fmt.Sprintf("run-%04d", c.rseq+1)
	spec := dispatch.Spec{Selection: req.Selection, Params: req.Params, Shards: req.Shards}
	r, err := c.openRun(id, func(cfg dispatch.LedgerConfig) (*dispatch.Ledger, error) {
		cfg.Spec, cfg.Balance = spec, req.Balance
		return dispatch.OpenLedger(cfg)
	})
	if err != nil {
		// The id stays free: nothing of a rejected run may linger.
		os.RemoveAll(c.RunDir(id))
		return "", err
	}
	c.rseq++
	c.wakeLocked()
	st := r.l.Stats()
	c.opts.Logf("coord: run %s: %q x%d (%s), %d units", id, r.l.Spec().Selection, r.l.Spec().Shards, r.l.Balance(), st.Total)
	return id, nil
}

// openRun opens a run's ledger through open, wiring it to the run's
// subscribers and log, and registers the run. Caller holds c.mu.
func (c *Coordinator) openRun(id string, open func(dispatch.LedgerConfig) (*dispatch.Ledger, error)) (*run, error) {
	r := &run{
		id: id, dir: c.RunDir(id), state: runRunning,
		subs: make(map[chan dispatch.ProgressEvent]struct{}),
	}
	l, err := open(dispatch.LedgerConfig{
		Dir: r.dir, MaxAttempts: c.opts.MaxAttempts, Codec: c.opts.Codec, Now: time.Now,
		// A lease is a copy to the ledger: it times them out and prefers
		// a live worker that has not failed the unit. One lease per unit:
		// no steal.
		AttemptTimeout: c.opts.LeaseTimeout, Live: maps.Keys(c.workers),
		// The ledger journaled e under c.mu; a stalled subscriber must not
		// stall the coordinator, and can re-read the journal.
		Emit: func(e dispatch.ProgressEvent) {
			for ch := range r.subs {
				select {
				case ch <- e:
				default:
					c.opts.Logf("coord: run %s: dropping event for slow subscriber", id)
				}
			}
		},
		Logf: func(format string, args ...any) {
			c.opts.Logf("coord: run %s: "+format, append([]any{id}, args...)...)
		},
		KeepMerged: true,
	})
	if err != nil {
		return nil, err
	}
	r.l = l
	c.runs[id] = r
	c.order = append(c.order, id)
	return r, nil
}

// ---- restart resume ----

// loadRuns restores every journaled run under dir/runs with the ledger's
// resume rule: done units re-validate their files, anything else
// re-enters the queue, and merged runs stay merged.
func (c *Coordinator) loadRuns() error {
	entries, err := os.ReadDir(filepath.Join(c.dir, "runs"))
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := c.loadRun(id); err != nil {
			// A corrupt run directory must not take the service down; it
			// stays on disk for the operator, invisible to the API.
			c.opts.Logf("coord: skipping run %s: %v", id, err)
		}
		var n int
		if _, err := fmt.Sscanf(id, "run-%d", &n); err == nil && n > c.rseq {
			c.rseq = n
		}
	}
	return nil
}

func (c *Coordinator) loadRun(id string) error {
	r, err := c.openRun(id, dispatch.ReopenLedger)
	if err != nil {
		return err
	}
	st := r.l.Stats()
	switch {
	case st.Merged:
		c.terminalLocked(r, runMerged, "")
	case r.l.Finished():
		// Everything was already done but the merge never journaled
		// (killed between last done and merged): finish the job now.
		if err := c.mergeLocked(r); err != nil {
			c.opts.Logf("coord: run %s: %v", id, err)
		}
	}
	st = r.l.Stats()
	c.opts.Logf("coord: resumed run %s: %d/%d units done, state %s", id, st.Done, st.Total, r.state)
	return nil
}

// ---- workers ----

// Register adds a worker and returns its identity plus heartbeat duty.
// Ids embed a per-process random nonce so an id issued before a
// coordinator restart can never alias one issued after it: a pre-restart
// worker's heartbeats get ErrUnknownWorker and it re-registers, instead
// of silently keeping a reused id alive.
func (c *Coordinator) Register(name string) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wseq++
	id := fmt.Sprintf("w-%s-%04d", c.boot, c.wseq)
	if name == "" {
		name = id
	}
	c.workers[id] = &workerState{id: id, name: name, lastBeat: time.Now()}
	c.opts.Logf("coord: worker %s (%q) registered", id, name)
	return RegisterResponse{
		Wire:            WireVersion,
		WorkerID:        id,
		HeartbeatMillis: c.opts.HeartbeatTimeout.Milliseconds() / 3,
	}
}

// ErrUnknownWorker reports a worker id the coordinator does not know —
// never registered, or dropped after missing heartbeats. The client's
// recovery is to register again.
var ErrUnknownWorker = fmt.Errorf("coord: unknown worker")

// ErrUnknownRun reports a run id the coordinator does not know.
var ErrUnknownRun = fmt.Errorf("coord: unknown run")

// Heartbeat refreshes a worker's liveness.
func (c *Coordinator) Heartbeat(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return ErrUnknownWorker
	}
	w.lastBeat = time.Now()
	return nil
}

// Lease hands the worker one pending unit, long-polling up to wait for
// work to appear. A nil lease (and nil error) means the poll expired.
func (c *Coordinator) Lease(workerID string, wait time.Duration) (*Lease, error) {
	deadline := time.Now().Add(wait)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		w, ok := c.workers[workerID]
		if !ok {
			return nil, ErrUnknownWorker
		}
		if l := c.leaseLocked(w); l != nil {
			return l, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		wake := c.wake
		c.mu.Unlock()
		t := time.NewTimer(remaining)
		select {
		case <-wake:
		case <-t.C:
		case <-c.closed:
		}
		t.Stop()
		c.mu.Lock()
		select {
		case <-c.closed:
			return nil, fmt.Errorf("coord: coordinator is shut down")
		default:
		}
	}
}

// leaseLocked grants the unit the first running run's ledger picks for
// the worker, runs in submission order. Caller holds c.mu.
func (c *Coordinator) leaseLocked(w *workerState) *Lease {
	now := time.Now()
	for _, id := range c.order {
		r := c.runs[id]
		if r.state != runRunning {
			continue
		}
		u, _ := r.l.Next(w.id, now)
		if u == nil {
			continue
		}
		t, attempt := r.l.Start(u, w.id, w.name, false)
		return &Lease{
			RunID: r.id, Unit: u.ID(), Attempt: attempt,
			Selection: t.Spec.Selection, Params: t.Spec.Params,
			Shards: t.Spec.Shards, Index: t.Index, Cells: t.Cells,
		}
	}
	return nil
}

// ---- results ----

// Push delivers one computed result file (raw shard-file bytes) for a
// leased unit. First completion wins: a push for an already-done unit is
// discarded as a duplicate, whoever sent it; a push that fails
// validation is journaled as a failed attempt if it belongs to the
// current lease.
func (c *Coordinator) Push(runID string, unitID int, workerID string, attempt int, data []byte) (PushResponse, error) {
	c.mu.Lock()
	r, ok := c.runs[runID]
	if !ok {
		c.mu.Unlock()
		return PushResponse{}, ErrUnknownRun
	}
	u := r.l.Unit(unitID)
	if u == nil {
		c.mu.Unlock()
		return PushResponse{}, fmt.Errorf("coord: run %s has no unit %d", runID, unitID)
	}
	if resp, settled := c.settledPushLocked(r, u, workerID, attempt, ""); settled {
		c.mu.Unlock()
		return resp, nil
	}
	c.pseq++
	tmp := fmt.Sprintf("%s.push%d.tmp", u.Path(), c.pseq)
	c.mu.Unlock()

	// The body may be tens of MiB: write and validate it without holding
	// c.mu so a slow disk or a large decode cannot stall heartbeats,
	// leases, the sweeper and SSE fan-out (or induce the very heartbeat
	// timeouts it would then have to sweep).
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return PushResponse{}, fmt.Errorf("coord: %w", err)
	}
	f, verr := r.l.Validate(u, tmp)

	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
		os.Remove(tmp)
		return PushResponse{}, fmt.Errorf("coord: coordinator is shut down")
	default:
	}
	// Re-check: a rival completion, a sweep, a split or a merge may have
	// settled the unit or the run while the file was being handled.
	if resp, settled := c.settledPushLocked(r, u, workerID, attempt, tmp); settled {
		return resp, nil
	}
	if verr != nil {
		os.Remove(tmp)
		if leased(u, attempt, workerID) {
			c.failLocked(r, u, attempt, verr)
		}
		return PushResponse{Wire: WireVersion, Accepted: false, Reason: verr.Error()}, nil
	}
	if err := os.Rename(tmp, u.Path()); err != nil {
		os.Remove(tmp)
		return PushResponse{}, fmt.Errorf("coord: %w", err)
	}
	r.l.Complete(u, attempt, c.workerName(u, attempt, workerID), u.Path(), f)
	if r.l.Finished() {
		if err := c.mergeLocked(r); err != nil {
			return PushResponse{}, err
		}
	}
	return PushResponse{Wire: WireVersion, Accepted: true}, nil
}

// settledPushLocked reports whether a push for the unit is already moot
// — a duplicate of a settled unit, or a run no longer running — and the
// response to acknowledge it with; a duplicate's file at path is
// discarded. Caller holds c.mu.
func (c *Coordinator) settledPushLocked(r *run, u *dispatch.Unit, workerID string, attempt int, path string) (PushResponse, bool) {
	if r.l.Settled(u) {
		r.l.Discard(u, attempt, c.workerName(u, attempt, workerID), path)
		return PushResponse{Wire: WireVersion, Accepted: false, Duplicate: true}, true
	}
	if r.state != runRunning {
		if path != "" {
			os.Remove(path)
		}
		return PushResponse{Wire: WireVersion, Accepted: false, Reason: "run " + r.state}, true
	}
	return PushResponse{}, false
}

// workerName resolves a display name for a worker id: the registered
// name while the worker is alive, the name its lease of attempt at u
// recorded after it was dropped, the raw id as a last resort. Caller
// holds c.mu.
func (c *Coordinator) workerName(u *dispatch.Unit, attempt int, workerID string) string {
	if w, ok := c.workers[workerID]; ok {
		return w.name
	}
	if cp, ok := u.Copy(attempt); ok && cp.Worker == workerID {
		return cp.Name
	}
	return workerID
}

// leased reports whether attempt at u is in flight under workerID's
// lease: a report about any other attempt is stale.
func leased(u *dispatch.Unit, attempt int, workerID string) bool {
	cp, ok := u.Copy(attempt)
	return ok && cp.Worker == workerID
}

// ReportFail records a worker's failed attempt at its leased unit. A
// stale report — the unit was reassigned or already completed — is
// acknowledged and ignored.
func (c *Coordinator) ReportFail(runID string, unitID int, req FailRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[runID]
	if !ok {
		return ErrUnknownRun
	}
	u := r.l.Unit(unitID)
	if u == nil {
		return fmt.Errorf("coord: run %s has no unit %d", runID, unitID)
	}
	if r.state != runRunning || !leased(u, req.Attempt, req.WorkerID) {
		return nil // stale: the sweeper or a rival already settled this attempt
	}
	c.failLocked(r, u, req.Attempt, fmt.Errorf("%s", req.Error))
	return nil
}

// failLocked ends the unit's lease as a failed attempt and acts on the
// ledger's verdict: wake the pollers for a requeue or a split, or fail
// the run when the attempt budget is exhausted. Caller holds c.mu.
func (c *Coordinator) failLocked(r *run, u *dispatch.Unit, attempt int, ferr error) {
	switch verdict, _ := r.l.Fail(u, attempt, ferr); verdict {
	case dispatch.FailExhausted:
		c.opts.Logf("coord: run %s: unit %d failed %d times; failing run: %v", r.id, u.ID(), attempt, ferr)
		c.terminalLocked(r, runFailed, fmt.Sprintf("unit %d: %d attempts exhausted: %v", u.ID(), attempt, ferr))
	case dispatch.FailRequeue, dispatch.FailSplit:
		c.wakeLocked()
	}
}

// mergeLocked merges a complete cover into merged.json and ends the run.
// Caller holds c.mu.
func (c *Coordinator) mergeLocked(r *run) error {
	if _, err := r.l.Merge(filepath.Join(r.dir, "merged.json")); err != nil {
		c.terminalLocked(r, runFailed, fmt.Sprintf("merge: %v", err))
		return fmt.Errorf("coord: run %s: merge: %w", r.id, err)
	}
	c.terminalLocked(r, runMerged, "")
	return nil
}

// ResultPath returns the path of a merged run's merged shard file.
func (c *Coordinator) ResultPath(runID string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[runID]
	if !ok {
		return "", ErrUnknownRun
	}
	if r.state != runMerged {
		return "", fmt.Errorf("coord: run %s is %s, not merged", runID, r.state)
	}
	return filepath.Join(r.dir, "merged.json"), nil
}

// ---- liveness ----

func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			c.sweep(time.Now())
		}
	}
}

// sweep drops workers whose heartbeats expired, failing their leases,
// and fails the leases the ledgers report past LeaseTimeout.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lost := map[string]bool{}
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) > c.opts.HeartbeatTimeout {
			lost[id] = true
			delete(c.workers, id)
			c.opts.Logf("coord: worker %s (%q) lost: heartbeat timeout", id, w.name)
			c.wakeLocked() // a unit every remaining worker failed is anyone's now
		}
	}
	// failLocked may exhaust a unit's attempt budget and fail the whole
	// run mid-loop, closing its journal; the run's remaining leases are
	// moot then.
	for _, rid := range c.order {
		r := c.runs[rid]
		if r.state != runRunning {
			continue
		}
		for _, cp := range r.l.InFlight() {
			if lost[cp.Worker] && r.state == runRunning {
				c.failLocked(r, cp.Unit, cp.Attempt, fmt.Errorf("worker %q lost: heartbeat timeout", cp.Name))
			}
		}
		for _, cp := range r.l.Expired(now) {
			if r.state == runRunning {
				c.failLocked(r, cp.Unit, cp.Attempt, fmt.Errorf("lease expired after %s", c.opts.LeaseTimeout))
			}
		}
	}
}

// ---- observation ----

// Subscribe returns the run's event history — its journal, across every
// coordinator that opened it — and, for a live run, a channel of
// subsequent events (closed at the terminal event). cancel must be
// called when done with the channel.
func (c *Coordinator) Subscribe(runID string) (history []dispatch.ProgressEvent, ch <-chan dispatch.ProgressEvent, cancel func(), err error) {
	c.mu.Lock()
	r, ok := c.runs[runID]
	if !ok {
		c.mu.Unlock()
		return nil, nil, nil, ErrUnknownRun
	}
	// Under c.mu, which every journal write holds, note how much of the
	// journal is written and register the channel: the history is that
	// prefix and every later event arrives on the channel. The prefix is
	// read after unlocking, so a long journal stalls no lease, push or
	// heartbeat.
	path := filepath.Join(r.dir, dispatch.JournalFileName)
	info, err := os.Stat(path)
	if err != nil {
		c.mu.Unlock()
		return nil, nil, nil, fmt.Errorf("dispatch: journal: %w", err)
	}
	cancel = func() {}
	if r.state == runRunning && r.subs != nil { // else terminal, or Close ended every stream
		sub := make(chan dispatch.ProgressEvent, 1024)
		r.subs[sub] = struct{}{}
		ch, cancel = sub, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			if _, live := r.subs[sub]; live {
				delete(r.subs, sub)
				close(sub)
			}
		}
	}
	c.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		cancel()
		return nil, nil, nil, fmt.Errorf("dispatch: journal: %w", err)
	}
	return dispatch.JournalEvents(data[:min(int(info.Size()), len(data))]), ch, cancel, nil
}

// RunStatuses lists every run, submission order.
func (c *Coordinator) RunStatuses() []RunStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RunStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.statusLocked(c.runs[id]))
	}
	return out
}

// Status returns one run's summary.
func (c *Coordinator) Status(runID string) (RunStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[runID]
	if !ok {
		return RunStatus{}, ErrUnknownRun
	}
	return c.statusLocked(r), nil
}

func (c *Coordinator) statusLocked(r *run) RunStatus {
	st, spec := r.l.Stats(), r.l.Spec()
	return RunStatus{
		RunID: r.id, Selection: spec.Selection, Shards: spec.Shards,
		Balance: r.l.Balance(), State: r.state,
		Done: st.Done, Total: st.Total,
		Resumed: st.Resumed, Duplicates: st.Duplicates,
		MergedCells: st.MergedCells, Failure: r.failure,
	}
}

// StatusText renders a deterministic status summary: the coordinator
// counterpart of `ioschedbench status`, golden-tested. It carries no
// wall-clock so that identical state renders identical bytes.
func (c *Coordinator) StatusText() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "coordinator: %d run(s), %d worker(s) connected\n", len(c.order), len(c.workers))
	if len(c.order) == 0 {
		return b.String()
	}
	b.WriteString("\n")
	rows := make([][]string, 0, len(c.order))
	for _, id := range c.order {
		r := c.runs[id]
		st := c.statusLocked(r)
		note := ""
		switch {
		case st.State == runFailed:
			note = st.Failure
		case st.State == runMerged && st.Duplicates > 0:
			note = fmt.Sprintf("%d duplicate(s) discarded", st.Duplicates)
		case st.State == runRunning:
			if n := len(r.l.InFlight()); n > 0 {
				note = fmt.Sprintf("%d in flight", n)
			}
		}
		rows = append(rows, []string{
			st.RunID, st.Selection, fmt.Sprintf("%d", st.Shards), st.Balance, st.State,
			fmt.Sprintf("%d/%d", st.Done, st.Total), note,
		})
	}
	b.WriteString(textplot.Table(
		[]string{"run", "selection", "shards", "balance", "state", "done", "note"}, rows))
	return b.String()
}
