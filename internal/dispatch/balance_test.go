package dispatch

// Tests for cost-balanced decomposition and the work-stealing queue: the
// merged output must stay byte-identical to the unsharded run whatever
// the decomposition, steal races must resolve to exactly one journaled
// winner, a failed batch must re-split, and an interrupted balanced
// dispatch must resume re-running only the cells it still owes.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cellcache"
	"repro/internal/experiment"
	"repro/internal/shard"
)

// goodBatchRun is the honest balanced-dispatch worker behaviour: compute
// exactly the task's cells (or its classic shard share) and persist them.
func goodBatchRun(ctx context.Context, t Task) error {
	if t.Cells == "" {
		return goodRun(ctx, t)
	}
	_, sets, err := shard.ParseCellSpec(t.Cells)
	if err != nil {
		return err
	}
	f, err := experiment.RunBatchCached(t.Spec.Selection, t.Spec.Params, 1, sets, nil)
	if err != nil {
		return err
	}
	return f.WriteFile(t.Out)
}

// TestDispatchCostBalanceEquivalence: a cost-packed dispatch over every
// experiment merges byte-identically to the unsharded run, and the
// journal records the balanced plan.
func TestDispatchCostBalanceEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpAll, 3)
	want := refEncoded(t, spec)
	dir := t.TempDir()
	res, err := Run(context.Background(), spec, pool(3, goodBatchRun),
		Options{Dir: dir, Balance: BalanceCost})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Ran == 0 || res.Resumed != 0 || res.Retries != 0 {
		t.Fatalf("ran/resumed/retries = %d/%d/%d", res.Ran, res.Resumed, res.Retries)
	}
	st, err := ReadJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Balance != BalanceCost {
		t.Fatalf("journal balance = %q, want %q", st.Balance, BalanceCost)
	}
	if !st.Merged || len(st.Missing()) != 0 {
		t.Fatalf("journal: merged=%v missing=%v", st.Merged, st.Missing())
	}
	for _, sh := range st.ShardStates {
		if sh.Kind != "cost" || sh.Spec == "" || sh.Cells == 0 {
			t.Fatalf("batch %d not journaled as a planned cost batch: %+v", sh.Index, sh)
		}
	}
}

func TestDispatchRejectsUnknownBalance(t *testing.T) {
	spec := testSpec(experiment.ExpFig5, 2)
	_, err := Run(context.Background(), spec, pool(1, goodBatchRun), Options{Balance: "lottery"})
	if err == nil || !strings.Contains(err.Error(), "lottery") {
		t.Fatalf("unknown balance accepted: %v", err)
	}
}

// releaseSet gates in-process workers on externally-controlled channels,
// so steal races resolve in a deterministic order without sleeps.
// Releases are sticky: releasing an id before any worker asked for its
// gate hands later askers an already-open gate (the coordinator may win
// a steal before the losing worker's goroutine even started).
type releaseSet struct {
	mu       sync.Mutex
	ch       map[int]chan struct{}
	released map[int]bool
	all      bool
}

func newReleaseSet() *releaseSet {
	return &releaseSet{ch: make(map[int]chan struct{}), released: make(map[int]bool)}
}

func (r *releaseSet) gate(id int) chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ch[id]
	if !ok {
		c = make(chan struct{})
		r.ch[id] = c
		if r.all || r.released[id] {
			close(c)
			r.released[id] = true
		}
	}
	return c
}

func (r *releaseSet) release(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.released[id] {
		return
	}
	r.released[id] = true
	if c, ok := r.ch[id]; ok {
		close(c)
	}
}

func (r *releaseSet) releaseAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.all = true
	for id, c := range r.ch {
		if !r.released[id] {
			close(c)
			r.released[id] = true
		}
	}
}

// TestDispatchStealFirstCompletionWins choreographs a steal race with
// channel gates: two workers hold both batches open, a third idle worker
// steals one and wins, and the loser's late completion must be discarded
// as a duplicate — never journaled over the winner — with the merge still
// byte-identical.
//
// Order of events, enforced by the gates (no timing assumptions):
//  1. w0 and w1 each start a batch and block on its gate; idle w2 steals
//     the heavier batch and computes immediately.
//  2. w2's done event releases that batch's gate: its original holder
//     computes too and delivers a late duplicate completion.
//  3. The driver's "duplicate completion" log line releases every other
//     gate, letting the remaining batch finish and the dispatch merge.
func TestDispatchStealFirstCompletionWins(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	want := refEncoded(t, spec)
	dir := t.TempDir()
	rs := newReleaseSet()

	blocker := func(name string) Worker {
		return &funcWorker{name: name, run: func(ctx context.Context, task Task) error {
			gate := rs.gate(task.Index)
			select {
			case <-gate:
			case <-ctx.Done():
				return ctx.Err()
			}
			return goodBatchRun(ctx, task)
		}}
	}
	var thiefTasks atomic.Int64
	thief := &funcWorker{name: "thief", run: func(ctx context.Context, task Task) error {
		if thiefTasks.Add(1) == 1 {
			return goodBatchRun(ctx, task) // first (stolen) task: win the race
		}
		gate := rs.gate(task.Index)
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
		return goodBatchRun(ctx, task)
	}}
	workers := []Worker{blocker("w0"), blocker("w1"), thief}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := Run(ctx, spec, workers, Options{
		Dir:         dir,
		Balance:     BalanceCost,
		Steal:       true,
		MaxAttempts: 2,
		Logf: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "duplicate completion") {
				rs.releaseAll()
			}
		},
		Progress: func(e ProgressEvent) {
			if e.Kind == ProgressDone {
				rs.release(e.Shard)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Steals == 0 {
		t.Fatal("no steal recorded")
	}
	if res.Duplicates == 0 {
		t.Fatal("the losing copy's completion was not discarded as a duplicate")
	}

	st, err := ReadJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stolen := 0
	for _, sh := range st.ShardStates {
		if sh.Steals > 0 {
			stolen++
			if sh.State != ShardDone || sh.Winner == "" {
				t.Fatalf("stolen batch %d has no journaled winner: %+v", sh.Index, sh)
			}
		}
		// First completion wins and the record ends there: a late loser
		// outcome must never flip a done batch back to failed.
		if sh.State != ShardDone {
			t.Fatalf("batch %d not done after the race: %+v", sh.Index, sh)
		}
	}
	if stolen == 0 {
		t.Fatal("journal records no stolen batch")
	}
	raw, err := os.ReadFile(filepath.Join(dir, JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"event":"steal"`) {
		t.Fatalf("journal carries no steal event:\n%s", raw)
	}
}

// TestDispatchCostSplitOnRetry: a failed cost batch with no concurrent
// copy re-splits into two child batches, the parent is superseded — in
// the journal and in a Tracker on the stream — and the merge over the
// mixed batch set stays byte-identical.
func TestDispatchCostSplitOnRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	want := refEncoded(t, spec)
	dir := t.TempDir()
	sab := &sabotage{target: 0, mode: "crash"}
	run := func(ctx context.Context, task Task) error {
		if task.Index == sab.target && sab.arm() {
			return fmt.Errorf("injected crash")
		}
		return goodBatchRun(ctx, task)
	}
	tr := NewTracker()
	res, err := Run(context.Background(), spec, pool(1, run),
		Options{Dir: dir, Balance: BalanceCost, MaxAttempts: 3, Progress: tr.Observe})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Retries == 0 {
		t.Fatal("no retry recorded for the split")
	}
	if res.Shards != 3 || res.Resumed+res.Cached+res.Ran != res.Shards {
		t.Fatalf("shards %d = resumed %d + cached %d + ran %d: want 3 that add up",
			res.Shards, res.Resumed, res.Cached, res.Ran)
	}
	if s := tr.Snapshot(); s.Total != 3 || s.Done != 3 || s.Failed != 0 || s.Pending != 0 || s.ETA != 0 || !s.Merged {
		t.Fatalf("tracker ends %+v: want 3/3 done, nothing failed or pending, merged", s)
	}

	st, err := ReadJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ShardStates[0].Superseded {
		t.Fatalf("split parent not superseded: %+v", st.ShardStates[0])
	}
	children := 0
	for _, sh := range st.ShardStates {
		if sh.Kind == "split" {
			children++
			if sh.Parent != 0 {
				t.Fatalf("split child %d has parent %d, want 0", sh.Index, sh.Parent)
			}
			if sh.State != ShardDone {
				t.Fatalf("split child %d not done: %+v", sh.Index, sh)
			}
		}
	}
	if children != 2 {
		t.Fatalf("journal records %d split children, want 2", children)
	}
	if len(st.Missing()) != 0 || !st.Merged {
		t.Fatalf("missing=%v merged=%v", st.Missing(), st.Merged)
	}
}

// TestDispatchCostResume kills a balanced dispatch mid-run and resumes it
// with a warm cell cache: the journal must carry the completed batch
// across (resumed), re-plan the dead batch's cells (journaled "dropped"),
// satisfy them from the cache without invoking any worker, and merge
// byte-identically — plan, steal-capable attempts and cached events all
// interleaved in one journal.
func TestDispatchCostResume(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	want := refEncoded(t, spec)
	dir := t.TempDir()

	broken := func(ctx context.Context, task Task) error {
		if task.Index == 1 {
			return fmt.Errorf("injected permanent failure")
		}
		return goodBatchRun(ctx, task)
	}
	if _, err := Run(context.Background(), spec, pool(1, broken),
		Options{Dir: dir, Balance: BalanceCost, MaxAttempts: 1}); err == nil {
		t.Fatal("first dispatch should have failed")
	}

	// Warm a cache with the full run, so the resume can cover the dead
	// batch's cells without a single worker invocation.
	store, err := cellcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	full, err := experiment.RunShard(spec.Selection, spec.Params, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := experiment.DepositFile(store, full, spec.Params); err != nil {
		t.Fatal(err)
	}
	refuse := pool(1, func(context.Context, Task) error {
		return fmt.Errorf("worker invoked despite a warm cache")
	})
	tr := NewTracker()
	res, err := Run(context.Background(), spec, refuse,
		Options{Dir: dir, Balance: BalanceCost, Steal: true, Cache: store, Progress: tr.Observe})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Resumed != 1 || res.Cached == 0 || res.Ran != 0 {
		t.Fatalf("resumed/cached/ran = %d/%d/%d, want 1/>0/0", res.Resumed, res.Cached, res.Ran)
	}
	// The resume's stream alone: the dropped batch is no phantom pending
	// unit.
	if s := tr.Snapshot(); s.Total != res.Shards || s.Done != res.Shards || s.Pending+s.Failed+s.Running != 0 {
		t.Fatalf("tracker over the resume ends %+v, want %d units all done", s, res.Shards)
	}

	raw, err := os.ReadFile(filepath.Join(dir, JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"dropped"`, `"event":"cached"`, `"balance":"cost"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("journal missing %s:\n%s", want, raw)
		}
	}
	st, err := ReadJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Merged || len(st.Missing()) != 0 {
		t.Fatalf("resumed journal: merged=%v missing=%v", st.Merged, st.Missing())
	}
}

// TestDispatchBalanceMismatchRejected: a directory journaled under one
// decomposition refuses a dispatch under another — mixing shard sets
// would corrupt resume.
func TestDispatchBalanceMismatchRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, pool(2, goodBatchRun),
		Options{Dir: dir, Balance: BalanceCost}); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), spec, pool(2, goodBatchRun), Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "balanced") {
		t.Fatalf("balance mismatch accepted: %v", err)
	}
}

// TestTrackerCellWeightedETA pins the cached-shard ETA fix: a shard
// satisfied from the cache contributes no observation, and with per-batch
// cell counts known the ETA weights by cells, so a cheap completed batch
// cannot make an expensive remaining one look quick.
func TestTrackerCellWeightedETA(t *testing.T) {
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	tr := NewTracker()
	tr.Observe(ProgressEvent{Kind: ProgressPlan, Shards: 3, Shard: -1, Time: t0})
	for i, cells := range []int{4, 2, 10} {
		tr.Observe(ProgressEvent{Kind: ProgressBatch, Shard: i, Cells: cells, Time: t0})
	}
	// Shard 0 comes from the cell cache: no attempt, no duration — it must
	// not count as a zero-duration observation.
	tr.Observe(ProgressEvent{Kind: ProgressCached, Shard: 0, Time: t0})
	// Shard 1 computes its 2 cells in 10s: 5s per cell.
	tr.Observe(ProgressEvent{Kind: ProgressAttempt, Shard: 1, Attempt: 1, Worker: "w0", Time: t0})
	tr.Observe(ProgressEvent{Kind: ProgressDone, Shard: 1, Attempt: 1, Worker: "w0", Cells: 2, Time: at(10 * time.Second)})

	s := tr.SnapshotAt(at(10 * time.Second))
	if s.AvgCell != 5*time.Second {
		t.Fatalf("AvgCell = %v, want 5s", s.AvgCell)
	}
	// Shard 2 still owes 10 cells; the per-shard mean (10s) would predict
	// 10s, but the cell-weighted estimate knows it is 5× the work.
	if s.ETA != 50*time.Second {
		t.Fatalf("ETA = %v, want 50s (cell-weighted)", s.ETA)
	}

	// A steal keeps the earliest start, so the winner's duration spans the
	// whole in-flight window, and completion keeps the ETA at zero work.
	tr.Observe(ProgressEvent{Kind: ProgressAttempt, Shard: 2, Attempt: 1, Worker: "w0", Time: at(10 * time.Second)})
	tr.Observe(ProgressEvent{Kind: ProgressSteal, Shard: 2, Attempt: 2, Worker: "w1", Time: at(20 * time.Second)})
	tr.Observe(ProgressEvent{Kind: ProgressDone, Shard: 2, Attempt: 2, Worker: "w1", Cells: 10, Time: at(60 * time.Second)})
	s = tr.SnapshotAt(at(60 * time.Second))
	if s.Steals != 1 || s.Shards[2].Steals != 1 {
		t.Fatalf("steal counts: %+v", s)
	}
	// Observations: 10s over 2 cells, then 50s (from the *first* attempt
	// at 10s, not the steal at 20s) over 10 cells.
	if want := 60 * time.Second / 12; s.AvgCell != want {
		t.Fatalf("AvgCell = %v, want %v", s.AvgCell, want)
	}
	if s.Done != 3 || s.ETA != 0 {
		t.Fatalf("final: %+v", s)
	}
}

// TestTrackerBlindDurationFallsBack: one completion without a cell count
// disables the cell-weighted ETA (a partial rate would skew it) in favour
// of the per-shard mean.
func TestTrackerBlindDurationFallsBack(t *testing.T) {
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	tr := NewTracker()
	tr.Observe(ProgressEvent{Kind: ProgressPlan, Shards: 2, Shard: -1, Time: t0})
	tr.Observe(ProgressEvent{Kind: ProgressBatch, Shard: 1, Cells: 10, Time: t0})
	tr.Observe(ProgressEvent{Kind: ProgressAttempt, Shard: 0, Attempt: 1, Worker: "w0", Time: t0})
	tr.Observe(ProgressEvent{Kind: ProgressDone, Shard: 0, Attempt: 1, Worker: "w0", Time: at(10 * time.Second)})
	s := tr.SnapshotAt(at(10 * time.Second))
	if s.AvgCell != 0 {
		t.Fatalf("AvgCell = %v, want 0 (blind observation)", s.AvgCell)
	}
	if s.ETA != 10*time.Second {
		t.Fatalf("ETA = %v, want 10s (AvgShard fallback)", s.ETA)
	}
}

// TestRefineCosts: observed per-cell rates from a prior journal replace
// the prediction at observed utilisation points, and scale it onto the
// observed unit everywhere else.
func TestRefineCosts(t *testing.T) {
	p := experiment.ShardParams{Systems: 4, Seed: 1, GAPopulation: 10, GAGenerations: 6}
	plan, err := experiment.PlanSelection(experiment.ExpFig5, p)
	if err != nil {
		t.Fatal(err)
	}
	if refineCosts(nil, plan); plan.Costs == nil {
		t.Fatal("plan costs consumed")
	}
	if got := refineCosts(nil, plan); &got[0][0] != &plan.Costs[0][0] {
		t.Fatal("nil prior must return the predicted costs unchanged")
	}

	// One done batch: cells 0-3 (all of utilisation point 0) in 20s.
	prior := &JournalState{ShardStates: []JournalShard{{
		Index: 0, State: ShardDone, Kind: "cost",
		Spec: "fig5=0-3", Cells: 4, Duration: 20 * time.Second,
	}}}
	refined := refineCosts(prior, plan)
	for g := 0; g < 4; g++ {
		if refined[0][g] != 5.0 {
			t.Fatalf("observed cell %d rate = %v, want 5.0", g, refined[0][g])
		}
	}
	// Unobserved points keep prediction × (observed seconds / predicted
	// cost of the observed cells).
	predicted := plan.Costs[0][0] + plan.Costs[0][1] + plan.Costs[0][2] + plan.Costs[0][3]
	scale := 20.0 / predicted
	g := 4 * 1 // first cell of point 1
	if want := plan.Costs[0][g] * scale; refined[0][g] != want {
		t.Fatalf("unobserved cell scaled to %v, want %v", refined[0][g], want)
	}

	// A prior with no usable observation (running, no duration) refines
	// nothing.
	blind := &JournalState{ShardStates: []JournalShard{{Index: 0, State: ShardRunning, Spec: "fig5=0-3", Cells: 4}}}
	if got := refineCosts(blind, plan); &got[0][0] != &plan.Costs[0][0] {
		t.Fatal("blind prior must return the predicted costs unchanged")
	}
}

// TestReadJournalBalancedEvents decodes a hand-written balanced journal:
// batch/steal/dropped events and the done event's winner, cells and
// duration must all surface on the journal state.
func TestReadJournalBalancedEvents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, JournalFileName)
	lines := []string{
		`{"event":"plan","v":1,"selection":"fig5","shards":2,"params":{"seed":1},"balance":"cost"}`,
		`{"event":"batch","shard":0,"kind":"cost","spec":"fig5=0-9","cells":10,"weight":12.5}`,
		`{"event":"batch","shard":1,"kind":"cost","spec":"fig5=10-19","cells":10,"weight":7.5}`,
		`{"time":"2026-08-07T12:00:00Z","event":"attempt","shard":0,"attempt":1,"worker":"w0"}`,
		`{"time":"2026-08-07T12:00:05Z","event":"steal","shard":0,"attempt":2,"worker":"w1"}`,
		`{"time":"2026-08-07T12:00:10Z","event":"done","shard":0,"attempt":2,"worker":"w1","file":"batch0.json.s2","cells":10}`,
		`{"time":"2026-08-07T12:00:10Z","event":"attempt","shard":1,"attempt":1,"worker":"w0"}`,
		`{"time":"2026-08-07T12:00:12Z","event":"fail","shard":1,"attempt":1,"worker":"w0","error":"boom"}`,
		`{"event":"batch","shard":2,"kind":"split","parent":1,"spec":"fig5=10-14","cells":5,"weight":3.75}`,
		`{"event":"batch","shard":3,"kind":"split","parent":1,"spec":"fig5=15-19","cells":5,"weight":3.75}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Balance != "cost" {
		t.Fatalf("balance = %q", st.Balance)
	}
	b0 := st.ShardStates[0]
	if b0.State != ShardDone || b0.Winner != "w1" || b0.Steals != 1 || b0.Attempts != 2 {
		t.Fatalf("batch 0: %+v", b0)
	}
	// Duration spans the *winning* attempt (the steal at :05) — the
	// winner's compute rate, which is what cost refinement wants.
	if b0.Cells != 10 || b0.Duration != 5*time.Second || b0.Weight != 12.5 || b0.Kind != "cost" {
		t.Fatalf("batch 0 metrics: %+v", b0)
	}
	b1 := st.ShardStates[1]
	if !b1.Superseded || b1.State != ShardFailed {
		t.Fatalf("split parent: %+v", b1)
	}
	for _, i := range []int{2, 3} {
		sh := st.ShardStates[i]
		if sh.Kind != "split" || sh.Parent != 1 || sh.Cells != 5 {
			t.Fatalf("split child %d: %+v", i, sh)
		}
	}
	// The superseded parent owes nothing; its children do.
	missing := st.Missing()
	if len(missing) != 2 || missing[0] != 2 || missing[1] != 3 {
		t.Fatalf("missing = %v", missing)
	}
}

// TestReadJournalWinnerDuration: a done event's duration runs from the
// start of the copy that won, not of the copy started last. Attempt 1
// starts at :00 and wins at :30 although a steal started at :20, so the
// batch's cells cost 30 s, not 10.
func TestReadJournalWinnerDuration(t *testing.T) {
	lines := []string{
		`{"event":"plan","v":1,"selection":"fig5","shards":1,"params":{"seed":1},"balance":"cost"}`,
		`{"event":"batch","shard":0,"kind":"cost","spec":"fig5=0-9","cells":10,"weight":10}`,
		`{"time":"2026-08-07T12:00:00Z","event":"attempt","shard":0,"attempt":1,"worker":"w0"}`,
		`{"time":"2026-08-07T12:00:20Z","event":"steal","shard":0,"attempt":2,"worker":"w1"}`,
		`{"time":"2026-08-07T12:00:30Z","event":"done","shard":0,"attempt":1,"worker":"w0","file":"batch0.json","cells":10}`,
	}
	st, err := parseJournal("winner.journal", []byte(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if b0 := st.ShardStates[0]; b0.Winner != "w0" || b0.Duration != 30*time.Second {
		t.Fatalf("batch 0: winner %q, duration %v; want w0 after 30s", b0.Winner, b0.Duration)
	}
}

// alternating returns every second cell index from start below n: the
// most scattered set, so its spec is the longest per cell.
func alternating(start, n int) []int {
	var cells []int
	for g := start; g < n; g += 2 {
		cells = append(cells, g)
	}
	return cells
}

// TestJournalLongestBatchLine: the longest batch event the writer can
// emit — a MaxCells-cell spec of alternating cells, several MiB on one
// line — reads back through ReadJournal with its spec intact.
func TestJournalLongestBatchLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFileName)
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := shard.FormatCellSpec([]string{experiment.ExpFig5}, [][]int{alternating(0, 2*shard.MaxCells)})
	if err != nil {
		t.Fatal(err)
	}
	j.write(ProgressEvent{Kind: ProgressPlan, Selection: experiment.ExpFig5, Shards: 1, Params: []byte(`{"seed":1}`), Balance: BalanceCost, Shard: -1})
	j.write(ProgressEvent{Kind: ProgressBatch, Shard: 0, BatchKind: "cost", Spec: spec, Cells: shard.MaxCells})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec) <= 1<<20 || len(st.ShardStates) != 1 || st.ShardStates[0].Spec != spec ||
		st.ShardStates[0].Cells != shard.MaxCells {
		t.Fatalf("a %d-byte batch spec did not round-trip: %d states", len(spec), len(st.ShardStates))
	}
}

// TestReopenLedgerLongBatchLines: a balanced journal whose batch lines
// run over 1 MiB resumes. The done batch is kept and every other cell is
// planned again, exactly once; no cell is computed.
func TestReopenLedgerLongBatchLines(t *testing.T) {
	spec, params, _, err := Spec{Selection: experiment.ExpFig5, Shards: 3,
		Params: experiment.ShardParams{Systems: 30000, Seed: 1}}.normalised()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiment.PlanSelection(spec.Selection, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	grid := plan.Grids[0]
	dir := t.TempDir()

	// Batch 1 is the single cell 1, done; its file is built by hand.
	done := &shard.File{
		Version: shard.FormatVersion, Selection: spec.Selection, Shards: 1, Params: params,
		Batch: &shard.BatchInfo{Cells: [][]int{{1}}},
		Runs: []shard.Run{{Experiment: spec.Selection, Grid: grid,
			Cells: []shard.Cell{{Point: 0, System: 1, Data: json.RawMessage(`{}`)}}}},
	}
	if err := done.WriteFile(filepath.Join(dir, "batch1.json")); err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(filepath.Join(dir, JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	j.write(ProgressEvent{Kind: ProgressPlan, Selection: spec.Selection, Shards: spec.Shards, Params: params, Balance: BalanceCost, Shard: -1})
	sets := [][]int{alternating(0, grid.Cells()), {1}, alternating(3, grid.Cells())}
	for id, set := range sets {
		s, err := shard.FormatCellSpec([]string{spec.Selection}, [][]int{set})
		if err != nil {
			t.Fatal(err)
		}
		if id != 1 && len(s) <= 1<<20 {
			t.Fatalf("batch %d spec is only %d bytes", id, len(s))
		}
		j.write(ProgressEvent{Kind: ProgressBatch, Shard: id, BatchKind: "cost", Spec: s, Cells: len(set), Weight: 1})
		j.write(ProgressEvent{Kind: ProgressAttempt, Shard: id, Attempt: 1, Worker: "w"})
	}
	j.write(ProgressEvent{Kind: ProgressDone, Shard: 1, Attempt: 1, Worker: "w", File: "batch1.json", Cells: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := ReopenLedger(LedgerConfig{Dir: dir, Now: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Resumed != 1 || st.Done != 1 {
		t.Fatalf("resumed %d, done %d; want the one journaled-done batch", st.Resumed, st.Done)
	}
	owed := make([]int, grid.Cells())
	owed[1] = 1 // the done batch's cell
	for _, u := range l.pending {
		if u.ID() < len(sets) {
			t.Fatalf("journaled batch %d queued again", u.ID())
		}
		for _, g := range u.cells[0] {
			owed[g]++
		}
	}
	for g, n := range owed {
		if n != 1 {
			t.Fatalf("cell %d planned %d times", g, n)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournalDir(dir); err != nil {
		t.Fatalf("the resumed journal does not read back: %v", err)
	}
}
