package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"time"

	"repro/internal/shard"
)

// Journal observability: ReadJournal decodes a dispatch journal — of a
// finished, interrupted or still-running dispatch — into a JournalState
// that answers the operator questions the CLI's "status" subcommand
// prints: which shards are done, which are missing, what failed where,
// and whether the cover has merged. It is a pure reader: it never locks,
// truncates or appends, so it is always safe to run against a live
// dispatch directory. The journal holds exactly the progress stream's
// events, and its fold, JournalState.apply, is the one a Tracker runs
// over the stream.

// JournalShard is one unit's state as the lifecycle fold
// (JournalState.apply) leaves it: a shard's or, in a balanced dispatch,
// a cell batch's (they share the id space). ReadJournal folds it from a
// journal, a Tracker from the progress stream; ShardStatus names the
// same record in a Tracker's Snapshot.
type JournalShard struct {
	Index int
	// State is the unit's latest state. A "running" unit of a dead
	// dispatch was interrupted mid-attempt and will re-run on resume.
	State ShardState
	// Attempts counts attempt and steal events; Fails counts failed ones;
	// Steals counts the steal events alone. Attempt is the latest
	// attempt number seen (0 = never attempted).
	Attempts, Fails, Steals, Attempt int
	// Worker is the last worker to touch the unit: the winner, once done.
	Worker string
	// Winner is the worker whose copy completed the unit (recorded on the
	// done event; "" in journals predating the field and on cached units).
	Winner string
	// Err is the last recorded failure, if any.
	Err string
	// File is the output path recorded when the unit completed.
	File string
	// Kind, Spec, Cells, Weight and Parent describe the unit's batch
	// event ("cost"/"split"/"dropped", the cell spec, the cell count, the
	// predicted weight, the split parent's id or -1). Kind and Spec are
	// empty on round-robin shards; Cells is also learned from done
	// events.
	Kind   string
	Spec   string
	Cells  int
	Weight float64
	Parent int
	// Superseded marks a batch no longer owed: a split parent (its
	// children carry the cells now) or a batch a resume re-planned away.
	Superseded bool
	// Cached and Resumed mark a done unit settled without running, from
	// the cell cache or from the journal.
	Cached, Resumed bool
	// Duration runs from the winning copy's start to the done event (cost
	// refinement prices cells by it), Span from the earliest start of a
	// copy still in flight (a Tracker's ETA extrapolates it); 0 when
	// unknown.
	Duration, Span time.Duration
}

// JournalState is the decoded state of one dispatch journal.
type JournalState struct {
	// Path is the journal file read.
	Path string
	// Version is the journal schema version of the plan event (a missing
	// field reads as 1; see JournalVersion).
	Version int
	// Selection, Shards and Params are the plan: which run the directory
	// belongs to. Balance is the plan's decomposition ("" in round-robin
	// journals, which never record the field).
	Selection string
	Shards    int
	Params    json.RawMessage
	Balance   string
	// ShardStates holds one entry per shard, indexed by shard.
	ShardStates []JournalShard
	// Merged reports whether the final merge event was journaled;
	// MergedCells is its recorded cell count.
	Merged      bool
	MergedCells int
	// PartialFile is the latest journaled auto-partial-merge output, with
	// PartialShards present shards covering PartialCells cells ("" if
	// none was journaled).
	PartialFile   string
	PartialShards int
	PartialCells  int

	// starts holds each unit's copies started since it last settled.
	starts map[int][]copyStart
}

type copyStart struct {
	attempt int
	at      time.Time
	failed  bool
}

// ReadJournalDir reads the journal inside a dispatch directory.
func ReadJournalDir(dir string) (*JournalState, error) {
	return ReadJournal(filepath.Join(dir, JournalFileName))
}

// ReadJournal reads and decodes one dispatch journal. Unparseable lines
// (a crash can truncate the final line) and unknown event types are
// skipped; a journal without a plan event — or with a plan of a newer
// schema version — is rejected rather than half-understood.
func ReadJournal(path string) (*JournalState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dispatch: journal: %w", err)
	}
	return parseJournal(path, data)
}

// parseJournal decodes journal bytes; path is used in messages only.
// Split from ReadJournal so the parser is fuzzable without file IO.
func parseJournal(path string, data []byte) (*JournalState, error) {
	st := &JournalState{Path: path}
	for w := range journalLines(data) {
		if w.Kind == ProgressPlan {
			if w.V > JournalVersion {
				return nil, fmt.Errorf("dispatch: journal %s is version %d, this build reads %d", path, w.V, JournalVersion)
			}
			st.Version = max(w.V, 1)
		}
		if err := st.apply(w.ProgressEvent); err != nil {
			return nil, err
		}
	}
	if st.Version == 0 {
		return nil, fmt.Errorf("dispatch: journal %s carries no plan event", path)
	}
	st.starts = nil
	return st, nil
}

// ReadJournalEvents returns the events journaled at path, in order: the
// progress stream of every open of the run, as Options.Progress
// delivered it. Unparseable lines are skipped, as ReadJournal skips them.
func ReadJournalEvents(path string) ([]ProgressEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dispatch: journal: %w", err)
	}
	return JournalEvents(data), nil
}

// JournalEvents returns the events of journal bytes, in order, as
// ReadJournalEvents reads them from a file.
func JournalEvents(data []byte) []ProgressEvent {
	var events []ProgressEvent
	for w := range journalLines(data) {
		events = append(events, w.ProgressEvent)
	}
	return events
}

// journalLines yields each parseable line of journal bytes, restoring
// what the line omits: the stream version, and shard -1 on run-level
// events. Lines are split in memory, so no line length is too long: a
// balanced batch event carries its whole cell spec.
func journalLines(data []byte) iter.Seq[*journalLine] {
	return func(yield func(*journalLine) bool) {
		for line := range bytes.Lines(data) {
			w := journalLine{ProgressEvent: ProgressEvent{Shard: -1}}
			if json.Unmarshal(line, &w) != nil {
				continue
			}
			w.Version = ProgressVersion
			if !yield(&w) {
				return
			}
		}
	}
}

// unit returns unit i's state, extending the states to it. An index at
// or beyond shard.MaxCells, the cap Spec.normalised puts on a run's shard
// count, is a bad event: it is skipped. The states grow geometrically up
// to that cap, so a plan's declared count is one exact allocation and no
// sequence of indices allocates more than twice the cap.
func (st *JournalState) unit(i int) *JournalShard {
	if i < 0 || i >= shard.MaxCells {
		return nil
	}
	if n := len(st.ShardStates); i >= cap(st.ShardStates) {
		grown := make([]JournalShard, n, min(max(i+1, 2*n), shard.MaxCells))
		copy(grown, st.ShardStates)
		st.ShardStates = grown
	}
	for len(st.ShardStates) <= i {
		st.ShardStates = append(st.ShardStates, JournalShard{Index: len(st.ShardStates), State: ShardPending, Parent: -1})
	}
	return &st.ShardStates[i]
}

// apply folds one lifecycle event into the state: the one reducer
// behind ReadJournal and Tracker. Unknown kinds and units out of range
// are skipped; a plan of more than shard.MaxCells units is an error and
// changes nothing. Only a round-robin plan pre-extends the states: a
// balanced run announces its batches.
func (st *JournalState) apply(e ProgressEvent) error {
	switch e.Kind {
	case ProgressPlan:
		if e.Shards > shard.MaxCells {
			return fmt.Errorf("dispatch: journal %s plans %d shards, more than %d", st.Path, e.Shards, shard.MaxCells)
		}
		st.Selection, st.Shards, st.Params, st.Balance = e.Selection, e.Shards, e.Params, e.Balance
		if st.Balance == "" {
			st.unit(e.Shards - 1)
		}
	case ProgressBatch:
		// The open planned (or a split created) the unit: pending until
		// a resumed or cached event settles it, and no copy of an
		// earlier open still runs.
		if s := st.unit(e.Shard); s != nil {
			s.State, s.Kind, s.Spec, s.Weight = ShardPending, e.BatchKind, e.Spec, e.Weight
			if e.Cells > 0 {
				s.Cells = e.Cells
			}
			delete(st.starts, e.Shard)
			if e.Parent != nil {
				// A split's children own the parent's cells now.
				s.Parent = *e.Parent
				if p := st.unit(s.Parent); p != nil {
					p.Superseded = true
				}
			}
			if s.Kind == "dropped" {
				// A resume re-planned this batch away; nobody owes it.
				s.Superseded = true
			}
		}
	case ProgressAttempt, ProgressSteal:
		if s := st.unit(e.Shard); s != nil {
			s.Attempts++
			if e.Kind == ProgressSteal {
				s.Steals++
			}
			s.State, s.Attempt, s.Worker, s.Err = ShardRunning, e.Attempt, e.Worker, ""
			if st.starts == nil {
				st.starts = make(map[int][]copyStart)
			}
			st.starts[e.Shard] = append(st.starts[e.Shard], copyStart{attempt: e.Attempt, at: e.Time})
		}
	case ProgressFailed:
		if s := st.unit(e.Shard); s != nil {
			s.Fails++
			s.State, s.Attempt, s.Worker, s.Err = ShardFailed, e.Attempt, e.Worker, e.Err
			for i, c := range st.starts[e.Shard] {
				if c.attempt == e.Attempt {
					st.starts[e.Shard][i].failed = true
				}
			}
		}
	case ProgressDone, ProgressCached, ProgressResumed:
		// A cached or resumed unit is done without running: for readers
		// and resume, exactly like done (the recorded file is re-validated
		// from scratch on resume).
		if s := st.unit(e.Shard); s != nil {
			s.State, s.File, s.Err = ShardDone, e.File, ""
			s.Cached, s.Resumed = e.Kind == ProgressCached, e.Kind == ProgressResumed
			if e.Cells > 0 {
				s.Cells = e.Cells
			}
			if e.Worker != "" { // a done event naming its winner
				s.Attempt, s.Worker, s.Winner = e.Attempt, e.Worker, e.Worker
			}
			if e.Kind != ProgressResumed {
				// A resumed unit keeps the durations of the done that
				// settled it: cost refinement prices cells by them.
				var first time.Time
				s.Duration = 0
				for _, c := range st.starts[e.Shard] {
					if c.attempt == e.Attempt {
						s.Duration = since(c.at, e.Time)
					}
					if !c.failed && (first.IsZero() || c.at.Before(first)) {
						first = c.at
					}
				}
				s.Span = since(first, e.Time)
			}
			delete(st.starts, e.Shard)
		}
	case ProgressPartial:
		if e.Err == "" {
			st.PartialFile, st.PartialShards, st.PartialCells = e.File, e.Shards, e.Cells
		}
	case ProgressMerged:
		st.Merged, st.MergedCells = true, e.Cells
	}
	return nil
}

// since returns end-start when both are known and positive, else 0.
func since(start, end time.Time) time.Duration {
	if start.IsZero() || end.IsZero() || !end.After(start) {
		return 0
	}
	return end.Sub(start)
}

// DoneCount returns the number of shards journaled done.
func (s *JournalState) DoneCount() int {
	n := 0
	for _, sh := range s.ShardStates {
		if sh.State == ShardDone {
			n++
		}
	}
	return n
}

// Missing returns the shard indices not journaled done, ascending — on a
// dead dispatch, exactly the indices a resume (or a by-hand re-run) still
// owes. Superseded batches (split parents, re-planned-away entries) are
// owed by nobody and skipped.
func (s *JournalState) Missing() []int {
	var out []int
	for _, sh := range s.ShardStates {
		if sh.State != ShardDone && !sh.Superseded {
			out = append(out, sh.Index)
		}
	}
	return out
}

// Failed returns the shard indices with at least one journaled failed
// attempt, ascending (they may have succeeded on retry — check State).
func (s *JournalState) Failed() []int {
	var out []int
	for _, sh := range s.ShardStates {
		if sh.Fails > 0 {
			out = append(out, sh.Index)
		}
	}
	return out
}
