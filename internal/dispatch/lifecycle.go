package dispatch

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/cellcache"
	"repro/internal/experiment"
	"repro/internal/shard"
)

// Unit is one unit of a run's plan: a round-robin shard or a cell batch.
type Unit struct {
	// Fixed at creation.
	id     int
	cells  [][]int // per-run cell sets aligned to the run names; nil for a shard
	spec   string  // shard.FormatCellSpec(cells); "" for a shard
	ncells int     // 0 when unknown
	weight float64 // predicted cost, steering steal targets
	path   string  // canonical output: shard<i>.json or batch<i>.json
	kind   string  // "" for a shard, else "cost" or "split"
	parent int     // a split child's parent id

	done     bool
	split    bool // superseded by two children that carry its cells
	file     *shard.File
	filePath string    // the winning (or resumed) file
	attempts int       // journaled attempts and steals, restored on reopen
	inflight []Copy    // copies started and not yet settled
	failed   []string  // identities of the workers whose attempt failed
	ready    time.Time // a queued retry is due at ready
}

// ID returns the unit's id (the journal's "shard" field).
func (u *Unit) ID() int { return u.id }

// Path returns the unit's canonical output file.
func (u *Unit) Path() string { return u.path }

// Copy is one in-flight attempt at a unit: who runs it, and since when.
type Copy struct {
	Unit    *Unit
	Attempt int
	// Worker is the identity the driver started it under: the
	// coordinator's worker id, or the pool slot in Run. Failures are
	// keyed by it, so two workers of the same name stay two workers.
	Worker  string
	Name    string    // the worker's display name, as journaled
	Started time.Time // the stamp of its attempt or steal event
	expired bool      // reported by Expired
}

// Copy returns the in-flight copy of attempt at u.
func (u *Unit) Copy(attempt int) (Copy, bool) {
	i := slices.IndexFunc(u.inflight, func(c Copy) bool { return c.Attempt == attempt })
	if i < 0 {
		return Copy{}, false
	}
	return u.inflight[i], true
}

// dropCopy settles the in-flight copy of attempt at u and returns it.
// A unit with no copy left keeps no array: the coordinator holds every
// run's units for as long as it runs.
func (u *Unit) dropCopy(attempt int) (Copy, bool) {
	c, ok := u.Copy(attempt)
	u.inflight = slices.DeleteFunc(u.inflight, func(c Copy) bool { return c.Attempt == attempt })
	if len(u.inflight) == 0 {
		u.inflight = nil
	}
	return c, ok
}

// Verdict is the ledger's ruling on a failed attempt.
type Verdict int

// The verdicts of Ledger.Fail.
const (
	FailNone      Verdict = iota // settled, not in flight, or another copy still runs
	FailRequeue                  // queued again; Next hands it out once RetryDelay has passed
	FailSplit                    // the batch was split into two queued children
	FailExhausted                // the attempt budget is spent; the run fails
)

// LedgerConfig configures one run's ledger.
type LedgerConfig struct {
	Spec    Spec // ReopenLedger takes Spec and Balance from the journal
	Balance string
	Dir     string // journal and unit files; created if absent
	// MaxAttempts bounds attempts per unit; <= 0 selects 3.
	MaxAttempts int
	// Cache, when non-nil, is probed before a unit is queued and receives
	// every validated completion.
	Cache *cellcache.Store
	// Codec encodes the files the ledger writes: cache-materialised unit
	// files and the merged file.
	Codec string
	Now   func() time.Time // clock of every journal line and event; required
	Emit  func(ProgressEvent)
	Logf  func(format string, args ...any) // lines carry no prefix
	// KeepMerged reopens a merged journal as finished — every unit done,
	// nothing re-validated or merged again — for a driver that serves
	// the merged file it already wrote.
	KeepMerged bool

	// The scheduling policy of Next, Expired and Wake. Steal lets Next
	// hand a worker a second copy of a straggler once no queued unit is
	// ready. RetryDelay holds a failed unit back from Next that long.
	// AttemptTimeout, when positive, is how long a copy may run before
	// Expired reports it. Live lists the identities of the driver's live
	// workers: Next hands a worker a unit it failed only when every live
	// worker has failed it. A nil Live lists none, so any worker may run
	// any unit.
	Steal          bool
	RetryDelay     time.Duration
	AttemptTimeout time.Duration
	Live           iter.Seq[string]
}

// LedgerStats counts a run's units and lifecycle outcomes. Total counts
// the units the merge needs: a split batch gives way to its children.
type LedgerStats struct {
	Done, Total                                  int
	Resumed, Cached, Retries, Steals, Duplicates int
	Merged                                       bool
	MergedCells                                  int
}

// Ledger is the unit lifecycle of one run and its scheduling policy,
// shared by Run and internal/coord (see the package documentation). It
// is single-goroutine: Run calls it from its driver loop, the
// coordinator service under its mutex. Validate alone may be called from
// any goroutine; it reads only what never changes after open.
type Ledger struct {
	spec        Spec
	params      []byte // compact canonical params every unit file must record
	runNames    []string
	balance     string
	dir         string
	maxAttempts int
	cache       *cellcache.Store
	codec       string
	now         func() time.Time
	emitFn      func(ProgressEvent)
	logf        func(string, ...any)
	steal       bool
	retryDelay  time.Duration
	timeout     time.Duration
	live        iter.Seq[string]

	jr      *journal
	held    []ProgressEvent // recorded while planning, before jr opens
	units   []*Unit         // ascending id
	byID    map[int]*Unit
	pending []*Unit // FIFO
	nextID  int
	stats   LedgerStats
	partial int // done units in the last partial cover written
}

// OpenLedger opens the run of cfg.Spec in cfg.Dir: a fresh journal is
// planned, an existing one — which must record the same run — resumed.
func OpenLedger(cfg LedgerConfig) (*Ledger, error) {
	return openLedger(cfg, nil)
}

// ReopenLedger resumes the run journaled in cfg.Dir.
func ReopenLedger(cfg LedgerConfig) (*Ledger, error) {
	prior, err := ReadJournalDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var p experiment.ShardParams
	if len(prior.Params) > 0 {
		if err := json.Unmarshal(prior.Params, &p); err != nil {
			return nil, fmt.Errorf("dispatch: journal %s: plan params: %w", prior.Path, err)
		}
	}
	cfg.Spec = Spec{Selection: prior.Selection, Params: p, Shards: prior.Shards}
	cfg.Balance = prior.Balance
	return openLedger(cfg, prior)
}

func openLedger(cfg LedgerConfig, prior *JournalState) (*Ledger, error) {
	spec, params, runNames, err := cfg.Spec.normalised()
	if err != nil {
		return nil, err
	}
	balance, err := normalisedBalance(cfg.Balance)
	if err != nil {
		return nil, err
	}
	l := &Ledger{
		spec: spec, params: params, runNames: runNames, balance: balance,
		dir: cfg.Dir, maxAttempts: cfg.MaxAttempts, cache: cfg.Cache, codec: cfg.Codec,
		now: cfg.Now, emitFn: cfg.Emit, logf: cfg.Logf, byID: make(map[int]*Unit),
		steal: cfg.Steal, retryDelay: cfg.RetryDelay, timeout: cfg.AttemptTimeout, live: cfg.Live,
	}
	if l.maxAttempts <= 0 {
		l.maxAttempts = 3
	}
	if l.logf == nil {
		l.logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	path := filepath.Join(cfg.Dir, JournalFileName)
	if prior == nil {
		data, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("dispatch: journal: %w", err)
		}
		if len(bytes.TrimSpace(data)) > 0 {
			if prior, err = parseJournal(path, data); err != nil {
				return nil, fmt.Errorf("%w; use a fresh directory", err)
			}
		}
	}
	if prior != nil {
		if err := l.sameRun(prior); err != nil {
			return nil, err
		}
		if prior.Merged && cfg.KeepMerged {
			l.reopenMerged(prior)
			return l, nil
		}
	}
	// The plan's events are held until it stands: an open that fails
	// writes and emits nothing, so a refused run leaves no journal and an
	// existing journal keeps its bytes.
	e := ProgressEvent{Kind: ProgressPlan, Selection: spec.Selection, Shards: spec.Shards, Params: params, Shard: -1}
	if balance != BalanceRoundRobin {
		e.Balance = balance // round-robin plans never recorded it
	}
	l.record(e)
	if err := l.plan(prior); err != nil {
		return nil, err
	}
	if l.jr, err = openJournal(path); err != nil {
		return nil, err
	}
	held := l.held
	l.held = nil
	for _, e := range held {
		l.emit(e)
	}
	return l, nil
}

// sameRun refuses a journal of a different run: mixing unit sets would
// corrupt the merge.
func (l *Ledger) sameRun(prior *JournalState) error {
	var recorded bytes.Buffer
	if len(prior.Params) > 0 {
		if err := json.Compact(&recorded, prior.Params); err != nil {
			return fmt.Errorf("dispatch: journal %s: plan params: %w", prior.Path, err)
		}
	}
	if prior.Selection != l.spec.Selection || prior.Shards != l.spec.Shards || !bytes.Equal(recorded.Bytes(), l.params) {
		return fmt.Errorf("dispatch: journal %s records a different run (selection %q, %d shards); use a fresh directory",
			prior.Path, prior.Selection, prior.Shards)
	}
	if b, err := normalisedBalance(prior.Balance); err != nil || b != l.balance {
		return fmt.Errorf("dispatch: journal %s records a %s-balanced run, this dispatch asks for %s; use a fresh directory",
			prior.Path, cmp.Or(b, prior.Balance), l.balance)
	}
	return nil
}

// plan builds the run's units, announces each, and settles it from the
// journal or the cell cache, or queues it.
func (l *Ledger) plan(prior *JournalState) error {
	plan := l.planBatches
	if l.balance == BalanceRoundRobin {
		plan = l.planShards
	}
	units, err := plan(prior)
	if err != nil {
		return err
	}
	// One probe for the whole plan: each cache key is read from disk once,
	// however many units draw cells from it.
	var probe *experiment.CacheProbe
	if l.cache != nil {
		probe = experiment.NewCacheProbe(l.cache)
	}
	for _, u := range units {
		l.add(u)
		switch {
		case u.file != nil:
			l.finish(u, u.filePath, u.file)
			l.stats.Resumed++
			l.deposit(u, u.file)
			l.logf("%s %d already complete (journal), skipping", l.noun(), u.id)
			l.record(ProgressEvent{Kind: ProgressResumed, Shard: u.id, File: u.filePath})
		case l.fromCache(probe, u):
			l.stats.Cached++
			l.record(ProgressEvent{Kind: ProgressCached, Shard: u.id, File: u.path})
			l.logf("%s %d satisfied from the cell cache, not queued", l.noun(), u.id)
		default:
			l.pending = append(l.pending, u)
		}
	}
	return nil
}

// planShards returns the round-robin shards, each keeping its journaled
// state and attempt count. Per-shard cell counts feed the batch events
// (and the Tracker's cell-weighted ETA). A selection the params cannot
// plan — a grid no experiment accepts, or one over shard.MaxGridCells —
// is refused here, before any unit exists: no worker could run it.
func (l *Ledger) planShards(prior *JournalState) ([]*Unit, error) {
	plan, err := experiment.PlanSelection(l.spec.Selection, l.spec.Params)
	if err != nil {
		return nil, err
	}
	ncells := make([]int, l.spec.Shards)
	for _, g := range plan.Grids {
		for gi := range g.Cells() {
			ncells[gi%l.spec.Shards]++
		}
	}
	units := make([]*Unit, l.spec.Shards)
	for i := range units {
		u := &Unit{id: i, ncells: ncells[i], weight: float64(ncells[i]), path: l.unitPath(i)}
		if prior != nil && i < len(prior.ShardStates) {
			sh := prior.ShardStates[i]
			u.attempts = sh.Attempts
			l.resumable(u, sh)
		}
		units[i] = u
	}
	l.nextID = l.spec.Shards
	return units, nil
}

// planBatches returns the cost-balanced batches. A resume keeps every done
// batch whose file still validates, journals every other prior batch as
// "dropped", and packs the uncovered cells into fresh batches under the
// cost model refined by the journal's observed durations.
func (l *Ledger) planBatches(prior *JournalState) ([]*Unit, error) {
	plan, err := experiment.PlanSelection(l.spec.Selection, l.spec.Params)
	if err != nil {
		return nil, err
	}
	covered := make([]map[int]bool, len(plan.Names))
	for ri := range covered {
		covered[ri] = make(map[int]bool)
	}
	var units []*Unit
	if prior != nil {
		l.nextID = len(prior.ShardStates)
		for _, sh := range prior.ShardStates {
			if sh.Superseded {
				continue
			}
			if u := l.journaledUnit(prior, sh); l.resumable(u, sh) {
				units = append(units, u)
				for ri, set := range u.cells {
					for _, g := range set {
						covered[ri][g] = true
					}
				}
				continue
			}
			l.record(ProgressEvent{Kind: ProgressBatch, Shard: sh.Index, BatchKind: "dropped", Spec: sh.Spec, Cells: sh.Cells, Weight: sh.Weight})
		}
	}
	packed, err := l.packBatches(plan, refineCosts(prior, plan), covered)
	return append(units, packed...), err
}

// packBatches cost-packs the not-yet-covered cells into up to Shards
// batches of near-equal predicted cost. Shared-key groups are packed once
// through their representative (its members copy the assignment), so
// fig6/fig7's single computation is never priced twice; parts that end up
// empty are dropped rather than dispatched.
func (l *Ledger) packBatches(plan *experiment.RunPlan, costs [][]float64, covered []map[int]bool) ([]*Unit, error) {
	masked := make([][]float64, len(costs))
	for ri := range costs {
		masked[ri] = make([]float64, len(costs[ri]))
		if plan.Groups[ri] != ri {
			continue // shared-key member: its representative carries the cost
		}
		for g, c := range costs[ri] {
			if !covered[ri][g] {
				masked[ri][g] = c
			}
		}
	}
	assign, err := shard.CostPacked{Costs: masked}.Split(plan.Grids, l.spec.Shards)
	if err != nil {
		return nil, err
	}
	for ri := range assign {
		if plan.Groups[ri] != ri {
			assign[ri] = assign[plan.Groups[ri]]
		}
	}
	var out []*Unit
	for p := 0; p < l.spec.Shards; p++ {
		cells := make([][]int, len(plan.Names))
		ncells, weight := 0, 0.0
		for ri := range plan.Names {
			for g, part := range assign[ri] {
				if part != p || covered[ri][g] {
					continue
				}
				cells[ri] = append(cells[ri], g)
				ncells++
				if plan.Groups[ri] == ri {
					weight += costs[ri][g]
				}
			}
		}
		if ncells == 0 {
			continue
		}
		u, err := l.newBatch("cost", -1, cells, ncells, weight)
		if err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	return out, nil
}

// newBatch creates a cell batch under the next free id.
func (l *Ledger) newBatch(kind string, parent int, cells [][]int, ncells int, weight float64) (*Unit, error) {
	spec, err := shard.FormatCellSpec(l.runNames, cells)
	if err != nil {
		return nil, err
	}
	u := &Unit{id: l.nextID, cells: cells, spec: spec, ncells: ncells, weight: weight, path: l.unitPath(l.nextID),
		kind: kind, parent: parent}
	l.nextID++
	return u, nil
}

// journaledUnit rebuilds a unit from its journal entry. A batch's cells
// come from its journaled cell spec, which names every run in canonical
// order; a split child's attempts continue its parent's.
func (l *Ledger) journaledUnit(prior *JournalState, sh JournalShard) *Unit {
	u := &Unit{id: sh.Index, spec: sh.Spec, ncells: sh.Cells, weight: sh.Weight, path: l.unitPath(sh.Index),
		kind: sh.Kind, parent: sh.Parent}
	for p := sh; ; p = prior.ShardStates[p.Parent] {
		u.attempts += p.Attempts
		if p.Parent < 0 || p.Parent >= p.Index { // parents precede children
			break
		}
	}
	if _, cells, err := shard.ParseCellSpec(sh.Spec); err == nil {
		u.cells = cells
	}
	return u
}

// resumable re-validates the file of a unit the journal marks done — a
// file corrupted or deleted since demotes the unit — and keeps it.
func (l *Ledger) resumable(u *Unit, sh JournalShard) bool {
	if sh.State != ShardDone {
		return false
	}
	path := u.path
	if sh.File != "" {
		// Resolved next to the journal, so a moved directory still resumes.
		path = filepath.Join(l.dir, filepath.Base(sh.File))
	}
	f, err := l.Validate(u, path)
	if err != nil {
		l.logf("journal marks %s %d done but its file is invalid (%v); re-running its cells", l.noun(), u.id, err)
		return false
	}
	u.file, u.filePath = f, path
	return true
}

// reopenMerged restores a merged run as finished, from the journal alone:
// it records nothing, as the journal already holds the whole run.
func (l *Ledger) reopenMerged(prior *JournalState) {
	for _, sh := range prior.ShardStates {
		if !sh.Superseded {
			u := l.journaledUnit(prior, sh)
			l.units = append(l.units, u)
			l.byID[u.id] = u
			l.finish(u, sh.File, nil)
		}
	}
	l.stats.Total, l.stats.Merged, l.stats.MergedCells = len(l.units), true, prior.MergedCells
}

func (l *Ledger) unitPath(id int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%d.json", l.noun(), id))
}

// noun names the run's units: classic shards keep their spelling.
func (l *Ledger) noun() string {
	if l.balance == BalanceRoundRobin {
		return "shard"
	}
	return "batch"
}

// record stamps e with the run's clock, journals it and emits it: the
// one place a lifecycle event is written. While openLedger plans, the
// journal is not open yet and the event is held until the plan stands.
// It returns the stamp.
func (l *Ledger) record(e ProgressEvent) time.Time {
	e.Version, e.Time = ProgressVersion, l.now()
	if l.jr == nil { // planning: openLedger emits it once the plan stands
		l.held = append(l.held, e)
	} else {
		l.emit(e)
	}
	return e.Time
}

// emit journals a stamped event and emits it.
func (l *Ledger) emit(e ProgressEvent) {
	l.jr.write(e)
	if l.emitFn != nil {
		l.emitFn(e)
	}
}

// add registers and announces a unit; the caller settles or queues it.
func (l *Ledger) add(u *Unit) {
	l.units = append(l.units, u)
	l.byID[u.id] = u
	l.stats.Total++
	e := ProgressEvent{Kind: ProgressBatch, Shard: u.id, BatchKind: u.kind, Spec: u.spec, Cells: u.ncells, Weight: u.weight}
	if parent := u.parent; u.kind == "split" {
		e.Parent = &parent
	}
	l.record(e)
}

func (l *Ledger) finish(u *Unit, path string, f *shard.File) {
	u.done, u.file, u.filePath = true, f, path
	l.stats.Done++
}

// fromCache settles u purely from cached cells when the probe (nil = no
// cache) holds them all. The file is written to u's path and validated
// from disk exactly like a worker's output, so a cache bug is a queued
// unit, never a silently merged one.
func (l *Ledger) fromCache(probe *experiment.CacheProbe, u *Unit) bool {
	if probe == nil {
		return false
	}
	var (
		f   *shard.File
		ok  bool
		err error
	)
	if u.cells == nil {
		f, ok, err = probe.Shard(l.spec.Selection, l.spec.Params, l.spec.Shards, u.id)
	} else {
		f, ok, err = probe.Batch(l.spec.Selection, l.spec.Params, u.cells)
	}
	if err == nil && ok {
		if err = f.WriteFileAs(u.path, l.codec); err == nil {
			f, err = l.Validate(u, u.path)
		}
	}
	if err != nil {
		l.logf("cache probe for %s %d: %v", l.noun(), u.id, err)
	}
	if err != nil || !ok {
		return false
	}
	l.finish(u, u.path, f)
	return true
}

// deposit feeds a validated file into the cell cache; failures are
// logged, never fatal — the cache accelerates runs, it does not gate them.
func (l *Ledger) deposit(u *Unit, f *shard.File) {
	if l.cache == nil {
		return
	}
	if err := experiment.DepositFile(l.cache, f, l.spec.Params); err != nil {
		l.logf("cache deposit for %s %d: %v", l.noun(), u.id, err)
	}
}

// Spec returns the run's normalised spec.
func (l *Ledger) Spec() Spec { return l.spec }

// Balance returns the run's normalised balance mode.
func (l *Ledger) Balance() string { return l.balance }

// Stats returns the run's counts.
func (l *Ledger) Stats() LedgerStats { return l.stats }

// Unit returns the unit with the given id, or nil.
func (l *Ledger) Unit(id int) *Unit { return l.byID[id] }

// Next returns the unit worker should run at now, and whether it is a
// steal: a second copy of a unit already in flight. Queued units go in
// order, skipping a retry that is not due yet and a unit worker failed
// while a live worker that has not failed it exists. With Steal on and
// no queued unit ready, it returns the heaviest single-copy straggler
// worker has neither failed nor runs (ties: the earliest started copy,
// then the lowest id). It returns nil when worker should wait.
func (l *Ledger) Next(worker string, now time.Time) (*Unit, bool) {
	ready := false
	for _, u := range l.pending {
		if u.ready.After(now) {
			continue
		}
		ready = true
		if l.mayRun(u, worker) {
			return u, false
		}
	}
	if ready || !l.steal {
		return nil, false
	}
	var target *Unit
	for _, u := range l.units {
		if l.Settled(u) || len(u.inflight) != 1 || u.attempts >= l.maxAttempts ||
			u.inflight[0].Worker == worker || slices.Contains(u.failed, worker) {
			continue
		}
		if target == nil || u.weight > target.weight ||
			(u.weight == target.weight && u.inflight[0].Started.Before(target.inflight[0].Started)) {
			target = u
		}
	}
	return target, target != nil
}

// mayRun reports whether worker may run u: it has not failed u, or every
// live worker has.
func (l *Ledger) mayRun(u *Unit, worker string) bool {
	if !slices.Contains(u.failed, worker) || l.live == nil {
		return true
	}
	for w := range l.live {
		if !slices.Contains(u.failed, w) {
			return false
		}
	}
	return true
}

// Expired returns, once each and in unit order, the in-flight copies that
// have run for AttemptTimeout or longer at now. The driver ends each one:
// the coordinator fails its lease, Run cancels its attempt.
func (l *Ledger) Expired(now time.Time) []Copy {
	if l.timeout <= 0 {
		return nil
	}
	var out []Copy
	for _, u := range l.units {
		for i := range u.inflight {
			if c := &u.inflight[i]; !c.expired && !now.Before(c.Started.Add(l.timeout)) {
				c.expired = true
				out = append(out, *c)
			}
		}
	}
	return out
}

// Wake returns the next instant at which Next or Expired may answer
// differently with no ledger call in between: a queued retry falls due
// after now, or an unreported copy times out (at or before now when it
// already has). Zero means no such instant.
func (l *Ledger) Wake(now time.Time) (at time.Time) {
	soonest := func(t time.Time) {
		if at.IsZero() || t.Before(at) {
			at = t
		}
	}
	for _, u := range l.pending {
		if u.ready.After(now) {
			soonest(u.ready)
		}
	}
	if l.timeout > 0 {
		for _, c := range l.InFlight() {
			if !c.expired {
				soonest(c.Started.Add(l.timeout))
			}
		}
	}
	return at
}

// InFlight returns the in-flight copies in unit order.
func (l *Ledger) InFlight() []Copy {
	var out []Copy
	for _, u := range l.units {
		out = append(out, u.inflight...)
	}
	return out
}

// Finished reports whether every unit the merge needs is done.
func (l *Ledger) Finished() bool { return l.stats.Done == l.stats.Total }

// Settled reports whether u needs no completion: it is done, or split
// into children that carry its cells.
func (l *Ledger) Settled(u *Unit) bool { return u.done || u.split }

// Start begins an attempt at u by the worker of the given identity and
// display name — with steal, a second concurrent copy — and returns its
// task and attempt number. A steal writes <path>.s<attempt>, so copies
// never collide and the canonical path stays the regular attempts'.
func (l *Ledger) Start(u *Unit, worker, name string, steal bool) (Task, int) {
	l.unqueue(u)
	u.attempts++
	att := u.attempts
	out, kind := u.path, ProgressAttempt
	if steal {
		out, kind = fmt.Sprintf("%s.s%d", u.path, att), ProgressSteal
		l.stats.Steals++
		l.logf("%s %d stolen by idle %s (attempt %d/%d)", l.noun(), u.id, name, att, l.maxAttempts)
	} else {
		l.logf("%s %d attempt %d/%d on %s", l.noun(), u.id, att, l.maxAttempts, name)
	}
	at := l.record(ProgressEvent{Kind: kind, Shard: u.id, Attempt: att, Worker: name})
	u.inflight = append(u.inflight, Copy{Unit: u, Attempt: att, Worker: worker, Name: name, Started: at})
	return Task{Spec: l.spec, Index: u.id, Cells: u.spec, Out: out}, att
}

// Validate accepts a file for u only if it is a decodable file of exactly
// this run and unit, with every owned cell present exactly once, and
// returns it decoded so nobody parses it twice.
func (l *Ledger) Validate(u *Unit, path string) (*shard.File, error) {
	return validateFile(path, l.spec, u.id, l.params, l.runNames, u.cells)
}

// Complete records a validated completion of attempt at u by the named
// worker, whose file is at path. The first completion wins and reports
// true; a completion of a settled unit is discarded.
func (l *Ledger) Complete(u *Unit, attempt int, worker, path string, f *shard.File) bool {
	if l.Settled(u) {
		l.Discard(u, attempt, worker, path)
		return false
	}
	// A late copy can win after its unit was failed and re-queued (a
	// stale push past its lease): nobody may start the unit again.
	l.unqueue(u)
	u.dropCopy(attempt)
	l.finish(u, path, f)
	l.deposit(u, f)
	l.record(ProgressEvent{Kind: ProgressDone, Shard: u.id, Attempt: attempt, Worker: worker, File: path, Cells: f.CellCount()})
	l.logf("%s %d complete (attempt %d on %s)", l.noun(), u.id, attempt, worker)
	return true
}

// Discard drops a completion of a settled unit: a counted duplicate,
// never journaled or merged, whose file at path ("" for none) is removed
// unless it is the winner's.
func (l *Ledger) Discard(u *Unit, attempt int, worker, path string) {
	u.dropCopy(attempt)
	l.stats.Duplicates++
	l.logf("%s %d duplicate completion (attempt %d on %s) discarded", l.noun(), u.id, attempt, worker)
	if path != "" && path != u.filePath {
		os.Remove(path)
	}
}

// Fail records a failed attempt at u and rules on it; the failure is
// charged to the copy's worker, whom Next then passes over for u. A
// failed batch with no copy still in flight is re-split into two
// children, so a retry re-runs half the work per worker instead of all
// of it; any other unit is queued again, due after RetryDelay.
func (l *Ledger) Fail(u *Unit, attempt int, err error) (Verdict, []*Unit) {
	c, ok := u.dropCopy(attempt)
	if !ok || l.Settled(u) {
		return FailNone, nil
	}
	if !slices.Contains(u.failed, c.Worker) {
		u.failed = append(u.failed, c.Worker)
	}
	at := l.record(ProgressEvent{Kind: ProgressFailed, Shard: u.id, Attempt: attempt, Worker: c.Name, Err: err.Error()})
	if len(u.inflight) > 0 {
		l.logf("%s %d attempt %d on %s failed; a concurrent copy is still running: %v", l.noun(), u.id, attempt, c.Name, err)
		return FailNone, nil
	}
	if u.attempts >= l.maxAttempts {
		return FailExhausted, nil
	}
	l.stats.Retries++
	if children := l.split(u); children != nil {
		l.logf("batch %d attempt %d on %s failed; re-splitting %d cells into batches %d+%d: %v",
			u.id, attempt, c.Name, u.ncells, children[0].id, children[1].id, err)
		return FailSplit, children
	}
	l.logf("%s %d attempt %d on %s failed, retrying: %v", l.noun(), u.id, attempt, c.Name, err)
	u.ready = at.Add(l.retryDelay)
	l.pending = append(l.pending, u)
	return FailRequeue, nil
}

func (l *Ledger) unqueue(u *Unit) {
	if i := slices.Index(l.pending, u); i >= 0 {
		l.pending = slices.Delete(l.pending, i, i+1)
	}
}

// split halves a batch's cells, walked in run/cell order, into two queued
// children that inherit its attempt count, so the budget still bounds the
// lineage, and the workers that failed it. It returns nil for a shard or
// a one-cell batch.
func (l *Ledger) split(u *Unit) []*Unit {
	if u.cells == nil || u.ncells < 2 {
		return nil
	}
	halves := [2][][]int{make([][]int, len(u.cells)), make([][]int, len(u.cells))}
	var counts [2]int
	for ri, set := range u.cells {
		for _, g := range set {
			h := 0
			if counts[0] == u.ncells/2 {
				h = 1
			}
			halves[h][ri] = append(halves[h][ri], g)
			counts[h]++
		}
	}
	children := make([]*Unit, 2)
	for h := range halves {
		c, err := l.newBatch("split", u.id, halves[h], counts[h], u.weight/2)
		if err != nil {
			return nil
		}
		c.attempts, c.failed = u.attempts, slices.Clone(u.failed)
		children[h] = c
	}
	u.split = true
	l.stats.Total--
	for _, c := range children {
		l.add(c)
		l.pending = append(l.pending, c)
	}
	return children
}

// mergeUnits returns the units the merge covers, in id order.
func (l *Ledger) mergeUnits() []*Unit {
	out := make([]*Unit, 0, l.stats.Total)
	for _, u := range l.units {
		if !u.split {
			out = append(out, u)
		}
	}
	return out
}

// Merge merges the validated unit files of a finished run — shard.Merge
// for shards, shard.MergeBatches for batches — writes the result to out
// unless out is "", journals and announces the merge, and releases the
// unit files.
func (l *Ledger) Merge(out string) (*shard.File, error) {
	units := l.mergeUnits()
	files := make([]*shard.File, len(units))
	for i, u := range units {
		if u.file == nil {
			return nil, fmt.Errorf("dispatch: internal: %s %d never completed", l.noun(), u.id)
		}
		files[i] = u.file
	}
	var (
		merged *shard.File
		err    error
	)
	if l.balance == BalanceRoundRobin {
		merged, err = shard.Merge(files)
	} else {
		var dups int
		merged, dups, err = shard.MergeBatches(files)
		l.stats.Duplicates += dups
	}
	if err == nil && out != "" {
		err = merged.WriteFileAs(out, l.codec)
	}
	if err != nil {
		return nil, err
	}
	l.stats.Merged, l.stats.MergedCells = true, merged.CellCount()
	l.record(ProgressEvent{Kind: ProgressMerged, Shards: len(files), Shard: -1, Cells: merged.CellCount()})
	l.logf("merged %d %ss (%d cells) for %q", len(files), l.noun(), merged.CellCount(), l.spec.Selection)
	for _, u := range l.units {
		u.file = nil
	}
	return merged, nil
}

// SavePartial merges the unit files completed so far into the run
// directory's partial.json and records a partial event. It writes
// nothing when no unit completed since the last cover, or when every
// unit has and the final merge is about to supersede the cover. Only
// round-robin shards make a partial cover.
func (l *Ledger) SavePartial() {
	var have []*shard.File
	for _, u := range l.units {
		if u.done {
			have = append(have, u.file)
		}
	}
	if len(have) == l.partial || len(have) == len(l.units) {
		return
	}
	path := filepath.Join(l.dir, partialFileName)
	cover, err := shard.MergePartial(have)
	if err == nil {
		// Write-then-rename: the file is documented as renderable at any
		// moment, so a concurrent "merge -partial" must never observe a
		// truncated in-place rewrite.
		if err = cover.File.WriteFileAs(path+".tmp", l.codec); err == nil {
			err = os.Rename(path+".tmp", path)
		}
	}
	if err != nil {
		// A failed provisional write must not kill the sweep it observes;
		// the next call retries. Its event keeps it visible where Logf is
		// off (the CLI's -progress mode).
		l.logf("partial merge: %v", err)
		l.record(ProgressEvent{Kind: ProgressPartial, Shard: -1, Err: err.Error()})
		return
	}
	l.partial = len(have)
	present, cells := len(cover.Present), cover.CellsHave()
	l.record(ProgressEvent{Kind: ProgressPartial, Shards: present, Shard: -1, File: path, Cells: cells})
	l.logf("partial merge: %d/%d shards (%d cells) written to %s", present, l.spec.Shards, cells, path)
}

// Close closes the journal and reports its first write error. Idempotent.
func (l *Ledger) Close() error {
	if l.jr == nil {
		return nil
	}
	return l.jr.Close()
}

// validateFile accepts a file only if it is a decodable file of exactly
// this run — right selection and params, the selection's canonical runs,
// and the grid and payload layout the registry derives from the params
// (experiment.ValidateRuns) — and of exactly one unit: classic shard
// index when cells is nil, else the cell batch recording exactly cells
// (a worker that computed the wrong cells is a failed attempt, not a
// mergeable file). Every owned cell must be present exactly once.
func validateFile(path string, spec Spec, index int, params []byte, runNames []string, cells [][]int) (*shard.File, error) {
	f, err := shard.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if f.Selection != spec.Selection {
		return nil, fmt.Errorf("dispatch: %s records selection %q, want %q", path, f.Selection, spec.Selection)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, f.Params); err != nil {
		return nil, fmt.Errorf("dispatch: %s params: %w", path, err)
	}
	if !bytes.Equal(got.Bytes(), params) {
		return nil, fmt.Errorf("dispatch: %s was produced by a different run (params mismatch: %s)",
			path, shard.DiffParams(params, got.Bytes()))
	}
	if len(f.Runs) != len(runNames) {
		return nil, fmt.Errorf("dispatch: %s holds %d runs, want %d", path, len(f.Runs), len(runNames))
	}
	for i, r := range f.Runs {
		if r.Experiment != runNames[i] {
			return nil, fmt.Errorf("dispatch: %s run %d is %q, want %q", path, i, r.Experiment, runNames[i])
		}
	}
	if err := experiment.ValidateRuns(f, spec.Params); err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", path, err)
	}
	switch {
	case cells == nil && f.Batch != nil:
		return nil, fmt.Errorf("dispatch: %s is a cell-batch file, want shard %d/%d", path, index, spec.Shards)
	case cells == nil && (f.Shards != spec.Shards || f.Index != index):
		return nil, fmt.Errorf("dispatch: %s records shard %d/%d, want %d/%d", path, f.Index, f.Shards, index, spec.Shards)
	case cells != nil && f.Batch == nil:
		return nil, fmt.Errorf("dispatch: %s is not a cell-batch file", path)
	case cells != nil && (f.Shards != 1 || f.Index != 0):
		return nil, fmt.Errorf("dispatch: %s records shard %d/%d, want a 1/0 batch", path, f.Index, f.Shards)
	case cells != nil && !slices.EqualFunc(f.Batch.Cells, cells, slices.Equal):
		return nil, fmt.Errorf("dispatch: %s records other cells than batch %d", path, index)
	}
	if err := f.ValidateCells(); err != nil {
		return nil, err
	}
	return f, nil
}
