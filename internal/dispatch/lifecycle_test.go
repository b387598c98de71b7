package dispatch

// The ledger driven directly: no goroutines, no workers, no HTTP — a fake
// clock and files written by the experiment registry at tiny params. Each
// script walks one lifecycle path and, after every step, checks the
// invariants both drivers rely on.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/shard"
)

// update rewrites the ledger golden files instead of diffing against
// them: go test ./internal/dispatch -run TestLedger -update
var update = flag.Bool("update", false, "rewrite golden files")

// ledgerRig drives one run's ledger across reopens and checks it. Its
// clock advances one second per rig step, never per read, so the bytes
// it pins do not depend on how often the ledger reads the clock.
type ledgerRig struct {
	t       *testing.T
	cfg     LedgerConfig
	l       *Ledger
	highest map[int]int // highest attempt ever started per unit id
	clock   time.Time
	events  []ProgressEvent // every event of every open, in order
}

func newLedgerRig(t *testing.T, balance string, shards, maxAttempts int, tune ...func(*LedgerConfig)) *ledgerRig {
	t.Helper()
	r := &ledgerRig{t: t, highest: map[int]int{}, clock: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
	r.cfg = LedgerConfig{
		Spec: Spec{
			Selection: experiment.ExpFig5, Shards: shards,
			Params: experiment.ShardParams{Systems: 2, Seed: 1, GAPopulation: 4, GAGenerations: 2},
		},
		Balance: balance, Dir: t.TempDir(), MaxAttempts: maxAttempts,
		Now:  func() time.Time { return r.clock },
		Emit: func(e ProgressEvent) { r.events = append(r.events, e) },
	}
	for _, f := range tune {
		f(&r.cfg)
	}
	r.reopen()
	return r
}

func (r *ledgerRig) tick() { r.clock = r.clock.Add(time.Second) }

// next returns the unit the ledger picks for worker at the rig's clock.
func (r *ledgerRig) next(worker string) *Unit {
	u, _ := r.l.Next(worker, r.clock)
	return u
}

// reopen closes the current ledger (if any) and opens the run again.
func (r *ledgerRig) reopen() {
	r.t.Helper()
	r.tick()
	if r.l != nil {
		if err := r.l.Close(); err != nil {
			r.t.Fatal(err)
		}
	}
	l, err := OpenLedger(r.cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.l = l
	r.check()
}

// start begins an attempt at u by worker "w".
func (r *ledgerRig) start(u *Unit, steal bool) (Task, int) {
	r.t.Helper()
	return r.startAs("w", u, steal)
}

// startAs begins an attempt at u by the worker of the given identity.
func (r *ledgerRig) startAs(worker string, u *Unit, steal bool) (Task, int) {
	r.t.Helper()
	r.tick()
	return r.begin(worker, u, steal)
}

// begin starts an attempt at u at the rig's clock, checking attempt
// numbers never go back. Every copy is journaled under the name "w":
// the ledger tells workers apart by identity alone.
func (r *ledgerRig) begin(worker string, u *Unit, steal bool) (Task, int) {
	r.t.Helper()
	task, att := r.l.Start(u, worker, "w", steal)
	if att <= r.highest[u.id] {
		r.t.Fatalf("unit %d: attempt %d after attempt %d", u.id, att, r.highest[u.id])
	}
	r.highest[u.id] = att
	r.check()
	return task, att
}

// computed caches the files compute builds, by task: many scripts and
// fuzz inputs ask for the same few units.
var computed sync.Map // fmt.Sprint(task.Spec, task.Index, task.Cells) → *shard.File

// compute writes the task's file as an honest worker would.
func (r *ledgerRig) compute(task Task) *shard.File {
	r.t.Helper()
	key := fmt.Sprint(task.Spec, task.Index, task.Cells)
	if f, ok := computed.Load(key); ok {
		if err := f.(*shard.File).WriteFile(task.Out); err != nil {
			r.t.Fatal(err)
		}
		return f.(*shard.File)
	}
	var (
		f   *shard.File
		err error
	)
	if task.Cells == "" {
		f, err = experiment.RunShard(task.Spec.Selection, task.Spec.Params, 1, task.Spec.Shards, task.Index)
	} else {
		var cells [][]int
		if _, cells, err = shard.ParseCellSpec(task.Cells); err == nil {
			f, err = experiment.RunBatchCached(task.Spec.Selection, task.Spec.Params, 1, cells, nil)
		}
	}
	if err == nil {
		err = f.WriteFile(task.Out)
	}
	if err != nil {
		r.t.Fatal(err)
	}
	computed.Store(key, f)
	return f
}

// complete computes and validates an attempt and records it.
func (r *ledgerRig) complete(u *Unit, task Task, att int) bool {
	r.t.Helper()
	r.tick()
	r.compute(task)
	f, err := r.l.Validate(u, task.Out)
	if err != nil {
		r.t.Fatal(err)
	}
	won := r.l.Complete(u, att, "w", task.Out, f)
	r.check()
	return won
}

func (r *ledgerRig) fail(u *Unit, att int) (Verdict, []*Unit) {
	r.t.Helper()
	r.tick()
	v, children := r.l.Fail(u, att, errors.New("injected failure"))
	r.check()
	return v, children
}

// drain runs every queued unit to completion.
func (r *ledgerRig) drain() {
	r.t.Helper()
	for u := r.next("w"); u != nil; u = r.next("w") {
		task, att := r.start(u, false)
		r.complete(u, task, att)
	}
}

// check asserts the events the rig received, over every open so far,
// are the journal decoded, one for one, and that a Tracker folding them
// agrees with the live ledger. Per unit the ledger holds, the Tracker
// records its attempt count (a split child counts its parent's attempts
// too: the budget bounds the lineage), whether it is done and whether
// it was split, and counts what the ledger counts. Every other unit is
// superseded, no settled unit is queued, and no (unit, attempt) pair is
// journaled twice.
func (r *ledgerRig) check() {
	r.t.Helper()
	path := filepath.Join(r.cfg.Dir, JournalFileName)
	journaled, err := ReadJournalEvents(path)
	if err != nil {
		r.t.Fatal(err)
	}
	if len(journaled) != len(r.events) {
		r.t.Fatalf("journal holds %d events, the stream carried %d", len(journaled), len(r.events))
	}
	seen := map[[2]int]bool{}
	for i, got := range r.events {
		want := journaled[i]
		if !got.Time.Equal(want.Time) {
			r.t.Fatalf("event %d at %v, journaled at %v", i, got.Time, want.Time)
		}
		got.Time, want.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(got, want) {
			r.t.Fatalf("event %d streamed as\n%+v\njournaled as\n%+v", i, got, want)
		}
		if got.Kind == ProgressAttempt || got.Kind == ProgressSteal {
			key := [2]int{got.Shard, got.Attempt}
			if seen[key] {
				r.t.Fatalf("journal repeats unit %d attempt %d", key[0], key[1])
			}
			seen[key] = true
		}
	}
	st, err := ReadJournal(path)
	if err != nil {
		r.t.Fatal(err)
	}
	tr := NewTracker()
	for _, e := range r.events {
		tr.Observe(e)
	}
	snap := tr.SnapshotAt(r.clock)
	if !reflect.DeepEqual(snap.Shards, st.ShardStates) {
		r.t.Fatalf("the Tracker folds\n%+v\nthe journal\n%+v", snap.Shards, st.ShardStates)
	}
	var lineage func(i int) int
	lineage = func(i int) int {
		if sh := snap.Shards[i]; sh.Parent >= 0 {
			return sh.Attempts + lineage(sh.Parent)
		}
		return snap.Shards[i].Attempts
	}
	for _, sh := range snap.Shards {
		u := r.l.Unit(sh.Index)
		if u == nil {
			if !sh.Superseded {
				r.t.Fatalf("the Tracker owes unit %d, the ledger does not know it", sh.Index)
			}
			continue
		}
		if lineage(sh.Index) != u.attempts || sh.Superseded != u.split || (sh.State == ShardDone) != u.done {
			r.t.Fatalf("unit %d: the Tracker says %d attempts/superseded %v/%s, the ledger %d/%v/done %v",
				sh.Index, lineage(sh.Index), sh.Superseded, sh.State, u.attempts, u.split, u.done)
		}
	}
	if ls := r.l.Stats(); snap.Total != ls.Total || snap.Done != ls.Done || snap.Merged != ls.Merged {
		r.t.Fatalf("the Tracker counts %d/%d done (merged %v), the ledger %d/%d (merged %v)",
			snap.Done, snap.Total, snap.Merged, ls.Done, ls.Total, ls.Merged)
	}
	for _, u := range r.l.units {
		if u.id >= len(snap.Shards) {
			r.t.Fatalf("ledger unit %d missing from the journal", u.id)
		}
	}
	for _, u := range r.l.pending {
		if r.l.Settled(u) {
			r.t.Fatalf("settled unit %d is still queued", u.id)
		}
	}
}

// merge merges the finished run and pins the journal against its golden
// file.
func (r *ledgerRig) merge() {
	r.t.Helper()
	r.mergeChecked()
	r.golden()
}

// mergeChecked merges the finished run, checking each unit is merged
// once and the result is byte-identical to the unsharded run, and
// reopens the merged run as finished.
func (r *ledgerRig) mergeChecked() {
	r.t.Helper()
	r.tick()
	if !r.l.Finished() {
		r.t.Fatalf("run not finished: %+v", r.l.Stats())
	}
	units := r.l.mergeUnits()
	for i := 1; i < len(units); i++ {
		if units[i].id <= units[i-1].id {
			r.t.Fatalf("unit %d merged out of order or twice", units[i].id)
		}
	}
	merged, err := r.l.Merge("")
	if err != nil {
		r.t.Fatal(err)
	}
	r.check()
	got, err := merged.Encode()
	if err != nil {
		r.t.Fatal(err)
	}
	if !bytes.Equal(got, r.reference()) {
		r.t.Fatal("merge differs from the unsharded run")
	}
	if err := r.l.Close(); err != nil {
		r.t.Fatal(err)
	}
	r.cfg.KeepMerged = true
	r.reopen()
	if st := r.l.Stats(); !r.l.Finished() || !st.Merged || r.next("w") != nil {
		r.t.Fatalf("merged run reopened unfinished: %+v", st)
	}
}

// references caches the unsharded run's encoded file by spec.
var references sync.Map // fmt.Sprint(selection, params) → []byte

// reference returns the encoded file of the rig's run, unsharded.
func (r *ledgerRig) reference() []byte {
	r.t.Helper()
	key := fmt.Sprint(r.cfg.Spec.Selection, r.cfg.Spec.Params)
	if b, ok := references.Load(key); ok {
		return b.([]byte)
	}
	ref, err := experiment.RunShard(r.cfg.Spec.Selection, r.cfg.Spec.Params, 1, 1, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	b, err := ref.Encode()
	if err != nil {
		r.t.Fatal(err)
	}
	references.Store(key, b)
	return b
}

// golden compares the run's journal bytes with
// testdata/ledger/<test>.golden; paths read relative to the run
// directory ($DIR). check has already held the progress stream to the
// journal.
func (r *ledgerRig) golden() {
	r.t.Helper()
	journal, err := os.ReadFile(filepath.Join(r.cfg.Dir, JournalFileName))
	if err != nil {
		r.t.Fatal(err)
	}
	got := bytes.ReplaceAll(journal, []byte(r.cfg.Dir), []byte("$DIR"))
	path := filepath.Join("testdata", "ledger", r.t.Name()+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			r.t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			r.t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		r.t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		r.t.Errorf("journal drifted from %s (re-run with -update after intentional changes):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestLedgerShards: done; fail → requeue; a reopen that restores the
// attempt count; a duplicate completion after a steal wins.
func TestLedgerShards(t *testing.T) {
	r := newLedgerRig(t, BalanceRoundRobin, 3, 3)
	u0 := r.next("w")
	task, att := r.start(u0, false)
	if !r.complete(u0, task, att) {
		t.Fatal("first completion lost")
	}
	u1 := r.next("w")
	_, att = r.start(u1, false)
	if v, _ := r.fail(u1, att); v != FailRequeue {
		t.Fatalf("verdict %v, want FailRequeue", v)
	}

	r.reopen()
	if st := r.l.Stats(); st.Resumed != 1 || st.Done != 1 || r.l.Unit(1).attempts != 1 {
		t.Fatalf("after reopen: %+v, unit 1 attempts %d", st, r.l.Unit(1).attempts)
	}
	u1 = r.l.Unit(1)
	task, att = r.start(u1, false)
	r.complete(u1, task, att)

	u2 := r.next("w")
	slow, slowAtt := r.start(u2, false)
	stolen, stolenAtt := r.start(u2, true)
	if !r.complete(u2, stolen, stolenAtt) {
		t.Fatal("stolen copy lost the race it finished first")
	}
	if r.complete(u2, slow, slowAtt) {
		t.Fatal("late copy won over a done unit")
	}
	if st := r.l.Stats(); st.Duplicates != 1 || st.Steals != 1 {
		t.Fatalf("stats %+v, want 1 duplicate and 1 steal", st)
	}
	r.merge()
}

// TestLedgerBatches: fail → split; a reopen mid-split that drops the
// unfinished children and re-plans their cells; merge.
func TestLedgerBatches(t *testing.T) {
	r := newLedgerRig(t, BalanceCost, 2, 3)
	b0 := r.next("w")
	_, att := r.start(b0, false)
	v, children := r.fail(b0, att)
	if v != FailSplit || len(children) != 2 || children[0].attempts != att {
		t.Fatalf("verdict %v, children %d: want a split inheriting the attempt count", v, len(children))
	}
	b1 := r.next("w")
	task, att := r.start(b1, false)
	r.complete(b1, task, att)
	c0 := r.next("w")
	task, att = r.start(c0, false)
	r.complete(c0, task, att)

	r.reopen()
	if st := r.l.Stats(); st.Resumed != 2 || st.Done != 2 || r.next("w") == nil {
		t.Fatalf("after reopen: %+v; want the two done batches resumed and the rest re-planned", st)
	}
	r.drain()
	r.merge()
}

// TestLedgerExhaust: the budget runs out, the run fails, and a reopen
// grants one more attempt numbered after the journaled ones.
func TestLedgerExhaust(t *testing.T) {
	r := newLedgerRig(t, BalanceRoundRobin, 1, 2)
	u := r.next("w")
	_, att := r.start(u, false)
	if v, _ := r.fail(u, att); v != FailRequeue {
		t.Fatalf("verdict %v, want FailRequeue", v)
	}
	_, att = r.start(u, false)
	if v, _ := r.fail(u, att); v != FailExhausted {
		t.Fatalf("verdict %v, want FailExhausted", v)
	}
	r.reopen()
	if got := r.l.Unit(0).attempts; got != 2 {
		t.Fatalf("restored attempts %d, want 2", got)
	}
	r.drain()
	r.merge()
}

// TestLedgerLateCompletion: an attempt failed and re-queued (a lease
// that expired) still completes first — the coordinator's stale push.
// It wins, and the re-queued unit is never started again.
func TestLedgerLateCompletion(t *testing.T) {
	r := newLedgerRig(t, BalanceRoundRobin, 2, 3)
	u := r.next("w")
	task, att := r.start(u, false)
	if v, _ := r.fail(u, att); v != FailRequeue {
		t.Fatalf("verdict %v, want FailRequeue", v)
	}
	r.compute(task)
	f, err := r.l.Validate(u, task.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.l.Complete(u, att, "w", task.Out, f) {
		t.Fatal("the first completion lost")
	}
	r.check()
	r.drain()
	r.merge()
}

// TestLedgerResumeKeepsCostObservations resumes a balanced run twice. The
// first resume journals the done batch as resumed; the second must still
// price cells by that batch's observed duration, exactly as the first
// did. A Tracker fed only the second resume's events counts the units
// that open planned: the batches earlier opens superseded are not
// pending.
func TestLedgerResumeKeepsCostObservations(t *testing.T) {
	r := newLedgerRig(t, BalanceCost, 2, 3)
	b0 := r.next("w")
	task, att := r.start(b0, false)
	r.complete(b0, task, att)
	r.start(r.next("w"), false) // interrupted mid-attempt

	plan, err := experiment.PlanSelection(r.l.Spec().Selection, r.l.Spec().Params)
	if err != nil {
		t.Fatal(err)
	}
	costs := func() [][]float64 {
		t.Helper()
		prior, err := ReadJournalDir(r.cfg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		return refineCosts(prior, plan)
	}
	r.reopen()
	first := costs()
	if reflect.DeepEqual(first, plan.Costs) {
		t.Fatal("the done batch's duration refined nothing")
	}
	mark := len(r.events)
	r.reopen()
	if second := costs(); !reflect.DeepEqual(second, first) {
		t.Fatalf("the second resume prices cells at\n%v\nthe first at\n%v", second, first)
	}
	tr := NewTracker()
	for _, e := range r.events[mark:] {
		tr.Observe(e)
	}
	s, ls := tr.SnapshotAt(r.clock), r.l.Stats()
	if s.Total != ls.Total || s.Done != ls.Done || s.Pending != len(r.l.pending) {
		t.Fatalf("tracker over the last open counts %d units, %d done, %d pending; the ledger %d, %d, %d",
			s.Total, s.Done, s.Pending, ls.Total, ls.Done, len(r.l.pending))
	}
	r.drain()
	r.merge()
}

// hugeRun is a fig5 run whose plan is refused: 2·10⁹ systems per point
// is over shard.MaxGridCells.
func hugeRun(balance, dir string) LedgerConfig {
	return LedgerConfig{
		Spec: Spec{
			Selection: experiment.ExpFig5, Shards: 2,
			Params: experiment.ShardParams{Systems: 2000000000, Seed: 1, GAPopulation: 4, GAGenerations: 2},
		},
		Balance: balance, Dir: dir, Now: time.Now,
	}
}

// TestLedgerRefusedOpenLeavesNoJournal: a fresh open whose plan fails
// writes no journal, so the corrected run opens in the same directory.
func TestLedgerRefusedOpenLeavesNoJournal(t *testing.T) {
	for _, balance := range []string{BalanceRoundRobin, BalanceCost} {
		dir := t.TempDir()
		huge := hugeRun(balance, dir)
		if _, err := OpenLedger(huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%s: opening a 2e9-system plan: %v, want the grid refused", balance, err)
		}
		if _, err := os.Stat(filepath.Join(dir, JournalFileName)); !os.IsNotExist(err) {
			t.Fatalf("%s: the refused open left a journal: %v", balance, err)
		}
		fixed := huge
		fixed.Spec.Params.Systems = 2
		l, err := OpenLedger(fixed)
		if err != nil {
			t.Fatalf("%s: the corrected run after a refused one: %v", balance, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLedgerRefusedResumeKeepsJournal: a resume whose plan fails — here
// of a journal recording a grid over the bound, as a build without the
// bound could have written — leaves the journal byte-identical.
func TestLedgerRefusedResumeKeepsJournal(t *testing.T) {
	for _, balance := range []string{BalanceRoundRobin, BalanceCost} {
		dir := t.TempDir()
		huge := hugeRun(balance, dir)
		small := huge
		small.Spec.Params.Systems = 2
		l, err := OpenLedger(small)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, JournalFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recorded := bytes.Replace(data, []byte(`"systems":2,`), []byte(`"systems":2000000000,`), 1)
		if bytes.Equal(recorded, data) {
			t.Fatal("the plan line records no systems")
		}
		if err := os.WriteFile(path, recorded, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLedger(huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%s: resuming a journal of a 2e9-system plan: %v, want the grid refused", balance, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, recorded) {
			t.Fatalf("%s: the refused resume changed the journal (%v):\n%s", balance, err, after)
		}
	}
}

// wantNext asserts what the ledger picks for worker at the rig's clock.
func (r *ledgerRig) wantNext(worker string, want *Unit, wantSteal bool) {
	r.t.Helper()
	u, steal := r.l.Next(worker, r.clock)
	if u != want || steal != wantSteal {
		r.t.Fatalf("Next(%q) = unit %s, steal %v; want unit %s, steal %v", worker, unitName(u), steal, unitName(want), wantSteal)
	}
}

func unitName(u *Unit) string {
	if u == nil {
		return "none"
	}
	return strconv.Itoa(u.id)
}

// TestLedgerFreshWorker: a worker is not handed a unit it failed while a
// live worker that has not failed it exists; once every live worker has
// failed it, anyone may run it. The two workers share one name, so only
// their identities tell them apart. Stealing is on: a ready unit the
// worker may not run still holds its steal back.
func TestLedgerFreshWorker(t *testing.T) {
	r := newLedgerRig(t, BalanceRoundRobin, 2, 3, func(c *LedgerConfig) {
		c.Live, c.Steal = slices.Values([]string{"a", "b"}), true
	})
	u0, u1 := r.l.Unit(0), r.l.Unit(1)
	r.wantNext("a", u0, false)
	_, a0 := r.startAs("a", u0, false)
	task, b1 := r.startAs("b", u1, false)
	if v, _ := r.fail(u0, a0); v != FailRequeue {
		t.Fatalf("verdict %v, want FailRequeue", v)
	}
	r.wantNext("a", nil, false) // b has not failed unit 0, and it is ready: no steal of unit 1
	r.complete(u1, task, b1)
	r.wantNext("b", u0, false)
	_, b0 := r.startAs("b", u0, false)
	r.fail(u0, b0)
	r.wantNext("b", u0, false) // every live worker failed it: anyone may run it
	r.wantNext("a", u0, false)
	task, a0 = r.startAs("a", u0, false)
	r.complete(u0, task, a0)
	r.merge()
}

// TestLedgerStealTargets: no steal while a queued unit is ready; then the
// heaviest single-copy straggler, ties to the earliest started copy and
// then the lowest id, never one the worker runs or failed. Every shard
// weighs the same here, so the ties decide.
func TestLedgerStealTargets(t *testing.T) {
	r := newLedgerRig(t, BalanceRoundRobin, 3, 3, func(c *LedgerConfig) { c.Steal = true })
	u0, u1, u2 := r.l.Unit(0), r.l.Unit(1), r.l.Unit(2)
	a2, aAtt := r.startAs("a", u2, false)
	r.wantNext("d", u0, false)
	r.tick()
	_, bAtt := r.begin("b", u0, false)
	c1, cAtt := r.begin("c", u1, false) // same stamp as b's copy
	r.wantNext("d", u2, true)           // the earliest started, not the lowest id
	d2, dAtt := r.startAs("d", u2, true)
	r.wantNext("e", u0, true) // same start: the lowest id
	e0, eAtt := r.startAs("e", u0, true)
	r.wantNext("c", nil, false) // c runs the only single-copy unit
	if !r.complete(u2, d2, dAtt) {
		t.Fatal("the stolen copy lost the race it finished first")
	}
	if r.complete(u2, a2, aAtt) {
		t.Fatal("the late original won over a done unit")
	}
	if v, _ := r.fail(u0, bAtt); v != FailNone {
		t.Fatalf("verdict %v with a copy still running, want FailNone", v)
	}
	r.wantNext("b", u1, true) // b failed unit 0, the other single-copy unit
	r.complete(u0, e0, eAtt)
	r.complete(u1, c1, cAtt)
	if st := r.l.Stats(); st.Steals != 2 || st.Duplicates != 1 {
		t.Fatalf("stats %+v, want 2 steals and 1 duplicate", st)
	}
	r.merge()
}

// TestLedgerRetryDelay: a failed unit is queued again but is not handed
// out until the clock passes its retry delay, and Wake names that
// instant.
func TestLedgerRetryDelay(t *testing.T) {
	r := newLedgerRig(t, BalanceRoundRobin, 1, 3, func(c *LedgerConfig) { c.RetryDelay = 5 * time.Second })
	u := r.l.Unit(0)
	_, att := r.start(u, false)
	r.fail(u, att)
	due := r.clock.Add(5 * time.Second)
	r.tick()
	r.wantNext("w", nil, false)
	if at := r.l.Wake(r.clock); !at.Equal(due) {
		t.Fatalf("Wake = %v, want the retry due at %v", at, due)
	}
	r.clock = due.Add(-time.Nanosecond)
	r.wantNext("w", nil, false)
	r.clock = due
	r.wantNext("w", u, false)
	if at := r.l.Wake(r.clock); !at.IsZero() {
		t.Fatalf("Wake = %v with the retry due, want none", at)
	}
	r.drain()
	r.merge()
}

// TestLedgerExpiredCopy: Expired reports a copy once, at its timeout; the
// driver fails it, a retry completes, and the late completion of the
// expired copy is discarded as a duplicate.
func TestLedgerExpiredCopy(t *testing.T) {
	r := newLedgerRig(t, BalanceRoundRobin, 2, 3, func(c *LedgerConfig) { c.AttemptTimeout = 10 * time.Second })
	u := r.l.Unit(0)
	late, lateAtt := r.startAs("a", u, false)
	due := r.clock.Add(10 * time.Second)
	if at := r.l.Wake(r.clock); !at.Equal(due) {
		t.Fatalf("Wake = %v, want the copy's timeout at %v", at, due)
	}
	r.clock = due.Add(-time.Nanosecond)
	if got := r.l.Expired(r.clock); len(got) != 0 {
		t.Fatalf("Expired before the timeout = %+v", got)
	}
	r.clock = due
	got := r.l.Expired(r.clock)
	if len(got) != 1 || got[0].Unit != u || got[0].Attempt != lateAtt || got[0].Worker != "a" {
		t.Fatalf("Expired at the timeout = %+v, want unit 0 attempt %d by a", got, lateAtt)
	}
	if again := r.l.Expired(r.clock); len(again) != 0 || !r.l.Wake(r.clock).IsZero() {
		t.Fatalf("Expired reported the copy again: %+v", again)
	}
	r.fail(u, lateAtt)
	task, att := r.startAs("b", u, false)
	r.complete(u, task, att)
	if r.complete(u, late, lateAtt) {
		t.Fatal("the expired copy's late completion won over a done unit")
	}
	if st := r.l.Stats(); st.Duplicates != 1 {
		t.Fatalf("stats %+v, want the late completion discarded", st)
	}
	r.drain()
	r.merge()
}
