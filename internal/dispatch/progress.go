package dispatch

import (
	"encoding/json"
	"slices"
	"sync"
	"time"
)

// ProgressVersion identifies the progress-event schema. It is bumped
// whenever an event kind is removed or a field changes meaning; adding
// kinds or fields is backwards-compatible. Version 2 made the stream
// carry exactly the journal's events (plan's Shards became the requested
// shard count); docs/DISPATCH.md specifies both in one table.
const ProgressVersion = 2

// ProgressKind names one kind of lifecycle event. The journal's event
// types carry the same names: every event is journaled and streamed.
type ProgressKind string

// The progress-event kinds.
const (
	// ProgressPlan opens every open of a run, fresh or resumed: it
	// carries the run's Selection, Params, Balance and requested Shards.
	ProgressPlan ProgressKind = "plan"
	// ProgressResumed reports a shard satisfied from the journal without
	// running.
	ProgressResumed ProgressKind = "resumed"
	// ProgressCached reports a shard satisfied from the cell cache
	// without running (File carries the shard file written from it).
	ProgressCached ProgressKind = "cached"
	// ProgressAttempt reports a worker starting an attempt at a shard.
	ProgressAttempt ProgressKind = "attempt"
	// ProgressBatch announces one unit an open planned or kept, a split
	// child, or a batch a resume dropped: Shard is its id, and BatchKind,
	// Parent, Spec, Cells and Weight describe it.
	ProgressBatch ProgressKind = "batch"
	// ProgressSteal reports an idle worker starting a duplicate attempt
	// at a straggling batch.
	ProgressSteal ProgressKind = "steal"
	// ProgressDone reports a shard completing (file validated).
	ProgressDone ProgressKind = "done"
	// ProgressFailed reports a failed attempt (the shard may be retried).
	ProgressFailed ProgressKind = "fail"
	// ProgressPartial reports an auto-partial-merge written to the
	// dispatch directory (Options.PartialEvery) — or, with Err set, a
	// partial write that failed and will be retried at the next tick.
	ProgressPartial ProgressKind = "partial"
	// ProgressMerged closes the stream: the complete cover merged.
	ProgressMerged ProgressKind = "merged"
)

// ProgressEvent is one lifecycle event of a run: one event of the
// progress stream and, in the JSON form its tags give, one journal line
// (docs/DISPATCH.md). A handler shared between dispatches must be safe
// for concurrent use (Tracker is).
type ProgressEvent struct {
	// Version is the schema version (ProgressVersion); journal lines
	// omit it.
	Version int `json:"version,omitempty"`
	// Time is the driver's wall-clock instant of the event.
	Time time.Time `json:"time"`
	// Kind is the event kind.
	Kind ProgressKind `json:"event"`
	// Selection, Params and Balance pin the run (plan): the selection,
	// the normalised params as compact JSON, and the balance mode (""
	// on round-robin runs). Shards carries the requested shard count
	// (plan), the merged unit count (merged) or the number of present
	// shards of a partial merge (partial).
	Selection string          `json:"selection,omitempty"`
	Shards    int             `json:"shards,omitempty"`
	Params    json.RawMessage `json:"params,omitempty"`
	Balance   string          `json:"balance,omitempty"`
	// Shard is the shard index the event concerns; -1 for run-level
	// events (plan, partial, merged).
	Shard int `json:"shard"`
	// Attempt numbers the attempt at the shard, starting at 1.
	Attempt int `json:"attempt,omitempty"`
	// Worker names the worker running the attempt.
	Worker string `json:"worker,omitempty"`
	// Err is the failure of a fail event, or of a partial event whose
	// write did not complete.
	Err string `json:"error,omitempty"`
	// File is the produced file: the shard file of a done event, the
	// partial cover file of a partial event.
	File string `json:"file,omitempty"`
	// BatchKind, Parent, Spec and Weight describe a batch event's unit:
	// "" for a round-robin shard, "cost", "split" or "dropped"; a split
	// child's parent id; the cell spec; the predicted weight.
	BatchKind string  `json:"kind,omitempty"`
	Parent    *int    `json:"parent,omitempty"`
	Spec      string  `json:"spec,omitempty"`
	Weight    float64 `json:"weight,omitempty"`
	// Cells counts merged cells (merged), covered cells (partial), or the
	// cells of one shard/batch (batch, done).
	Cells int `json:"cells,omitempty"`
}

// ShardState is a unit's lifecycle state.
type ShardState string

// The shard lifecycle states.
const (
	ShardPending ShardState = "pending"
	ShardRunning ShardState = "running"
	ShardDone    ShardState = "done"
	ShardFailed  ShardState = "failed"
)

// ShardStatus is one unit's state in a Snapshot: the record ReadJournal
// folds from a journal, folded here from the progress stream.
type ShardStatus = JournalShard

// Snapshot is a point-in-time view of a dispatch derived purely from its
// progress events.
type Snapshot struct {
	// Shards holds the per-shard states, indexed by shard (superseded
	// batches included); nil from Counts.
	Shards []ShardStatus
	// Total, Done, Running, Failed and Pending count the units the merge
	// needs by state (Done includes Resumed; Failed counts units whose
	// latest attempt failed and has not been retried yet). A superseded
	// batch is not counted, nor, on a balanced run, an id no batch event
	// announced (a batch an earlier open superseded).
	Total, Done, Running, Failed, Pending int
	// Resumed counts shards satisfied from the journal without running.
	Resumed int
	// Cached counts shards satisfied from the cell cache without running.
	Cached int
	// Steals counts duplicate attempts started by work stealing.
	Steals int
	// Elapsed is the wall-clock time since the plan event.
	Elapsed time.Duration
	// AvgShard is the mean observed wall-clock of a completed attempt;
	// 0 until the first shard completes.
	AvgShard time.Duration
	// AvgCell is the mean observed wall-clock per computed cell, when
	// every completed attempt's cell count is known; 0 otherwise.
	AvgCell time.Duration
	// ETA estimates the remaining wall-clock. When every remaining
	// shard's cell count is known (batch/done events carry them) it is
	// cell-weighted — AvgCell × remaining cells / max(1, Running) — so
	// uneven batches and cache-satisfied shards cannot skew it; otherwise
	// it falls back to AvgShard × remaining shards / max(1, Running).
	// 0 until the first shard completes (no observation to extrapolate).
	ETA time.Duration
	// Merged reports whether the final merge completed.
	Merged bool
}

// Tracker folds a progress-event stream into a queryable Snapshot: the
// standard Options.Progress consumer for live status displays. It runs
// the journal reader's fold (JournalState.apply) over the stream and adds
// the snapshot arithmetic. It is safe for concurrent use.
type Tracker struct {
	mu    sync.Mutex
	start time.Time
	st    JournalState
}

// NewTracker returns an empty Tracker; feed it every ProgressEvent of one
// dispatch (pass its Observe method — or a wrapper — as
// Options.Progress).
func NewTracker() *Tracker { return &Tracker{} }

// Observe folds one event into the tracked state. Unknown kinds are
// ignored, so a Tracker keeps working across compatible schema additions.
func (t *Tracker) Observe(e ProgressEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.start.IsZero() || (!e.Time.IsZero() && e.Time.Before(t.start)) {
		t.start = e.Time
	}
	// A plan the journal reader would reject changes nothing.
	t.st.apply(e)
}

// Snapshot returns the current state, with Elapsed and ETA measured
// against time.Now.
func (t *Tracker) Snapshot() Snapshot { return t.SnapshotAt(time.Now()) }

// SnapshotAt returns the current state measured against an explicit
// instant (deterministic displays and tests).
func (t *Tracker) SnapshotAt(now time.Time) Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.counts(now)
	s.Shards = slices.Clone(t.st.ShardStates)
	return s
}

// Counts returns Snapshot without the per-unit Shards: what a display
// redrawn on every event reads, without copying every unit's record.
func (t *Tracker) Counts() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts(time.Now())
}

func (t *Tracker) counts(now time.Time) Snapshot {
	s := Snapshot{Merged: t.st.Merged}
	var sumSpan time.Duration
	nSpan, spanCells, blindSpan := 0, 0, 0
	remainingCells, cellsKnown := 0, true
	for i := range t.st.ShardStates {
		st := &t.st.ShardStates[i]
		if st.Superseded || (t.st.Balance != "" && st.Kind == "") {
			continue
		}
		s.Total++
		s.Steals += st.Steals
		switch st.State {
		case ShardDone:
			s.Done++
		case ShardRunning:
			s.Running++
		case ShardFailed:
			s.Failed++
		default:
			s.Pending++
		}
		switch {
		case st.State != ShardDone && st.Cells > 0:
			remainingCells += st.Cells
		case st.State != ShardDone:
			cellsKnown = false
		case st.Resumed:
			s.Resumed++
		case st.Cached:
			s.Cached++
		case st.Span > 0:
			// One observation: a blind one (no cell count) disables the
			// cell-weighted ETA, as a partial rate would skew it.
			sumSpan += st.Span
			nSpan++
			if st.Cells > 0 {
				spanCells += st.Cells
			} else {
				blindSpan++
			}
		}
	}
	if !t.start.IsZero() && now.After(t.start) {
		s.Elapsed = now.Sub(t.start)
	}
	if nSpan > 0 {
		s.AvgShard = sumSpan / time.Duration(nSpan)
		if spanCells > 0 && blindSpan == 0 {
			s.AvgCell = sumSpan / time.Duration(spanCells)
		}
		if remaining := s.Pending + s.Running + s.Failed; remaining > 0 {
			width := max(s.Running, 1)
			if s.AvgCell > 0 && cellsKnown {
				// Cell-weighted: a shard whose cells all came from the cache
				// completed in near-zero time over few computed cells — the
				// per-cell rate, not the per-shard mean, predicts the rest.
				s.ETA = s.AvgCell * time.Duration(remainingCells) / time.Duration(width)
			} else {
				s.ETA = s.AvgShard * time.Duration(remaining) / time.Duration(width)
			}
		}
	}
	return s
}
