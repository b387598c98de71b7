package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// dispatch directory.

// JournalShard summarises one shard's (or, in a balanced dispatch, one
// cell batch's — they share the id space) journaled lifecycle.
type JournalShard struct {
	Index int
	// State is the shard's latest journaled state. A "running" shard of a
	// dead dispatch was interrupted mid-attempt and will re-run on
	// resume.
	State ShardState
	// Attempts counts journaled attempt and steal events; Fails counts
	// failed ones; Steals counts the steal events alone.
	Attempts, Fails, Steals int
	// Worker is the last worker to touch the shard.
	Worker string
	// Winner is the worker whose copy completed the shard (recorded on
	// the done event; "" in journals predating the field and on cached
	// shards).
	Winner string
	// Err is the last recorded failure, if any.
	Err string
	// File is the output path recorded when the shard completed.
	File string
	// Kind, Spec, Cells, Weight and Parent describe a balanced dispatch's
	// batch entry ("cost"/"split"/"dropped", the cell spec, the cell
	// count, the predicted weight, the split parent's id or -1). Zero on
	// classic round-robin shards; Cells is also learned from done events.
	Kind   string
	Spec   string
	Cells  int
	Weight float64
	Parent int
	// Superseded marks a batch no longer owed: a split parent (its
	// children carry the cells now) or a batch a resume re-planned away.
	Superseded bool
	// Duration is the wall-clock from the last attempt/steal start to the
	// done event (0 when unknown or cached).
	Duration time.Duration
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
	sawPlan := false
	// shardAt returns shard i's state, extending the states to it. An
	// index at or beyond shard.MaxCells, the cap Spec.normalised puts on
	// a run's shard count, is a bad line: its event is skipped. The
	// states grow geometrically up to that cap, so a plan's declared
	// count is one exact allocation and no sequence of indices allocates
	// more than twice the cap.
	shardAt := func(i int) *JournalShard {
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
	// lastStart[id] is the most recent attempt/steal time, feeding the
	// done event's Duration.
	lastStart := make(map[int]time.Time)
	at := func(e journalEvent) time.Time {
		t, err := time.Parse(time.RFC3339Nano, e.Time)
		if err != nil {
			return time.Time{}
		}
		return t
	}
	// Lines are split in memory, so no line length is too long: a
	// balanced batch event carries its whole cell spec.
	for line := range bytes.Lines(data) {
		var e journalEvent
		if json.Unmarshal(line, &e) != nil {
			continue
		}
		switch e.Event {
		case "plan":
			if e.V > JournalVersion {
				return nil, fmt.Errorf("dispatch: journal %s is version %d, this build reads %d", path, e.V, JournalVersion)
			}
			st.Version = e.V
			if st.Version == 0 {
				st.Version = 1
			}
			if e.Shards > shard.MaxCells {
				return nil, fmt.Errorf("dispatch: journal %s plans %d shards, more than %d", path, e.Shards, shard.MaxCells)
			}
			st.Selection, st.Shards, st.Params = e.Selection, e.Shards, e.Params
			st.Balance = e.Balance
			// A balanced plan's batches are announced by batch events, not
			// the shard count; only pre-extend round-robin journals.
			if e.Balance == "" {
				shardAt(e.Shards - 1)
			}
			sawPlan = true
		case "batch":
			if e.Shard != nil {
				if s := shardAt(*e.Shard); s != nil {
					s.Kind, s.Spec, s.Cells, s.Weight = e.Kind, e.Spec, e.Cells, e.Weight
					if e.Parent != nil {
						s.Parent = *e.Parent
						// A split's children own the parent's cells now.
						if p := shardAt(*e.Parent); p != nil {
							p.Superseded = true
						}
					}
					if e.Kind == "dropped" {
						// A resume re-planned this batch away; nobody owes it.
						s.Superseded = true
					}
				}
			}
		case "attempt", "steal":
			if e.Shard != nil {
				if s := shardAt(*e.Shard); s != nil {
					s.Attempts++
					if e.Event == "steal" {
						s.Steals++
					}
					s.State, s.Worker, s.Err = ShardRunning, e.Worker, ""
					lastStart[*e.Shard] = at(e)
				}
			}
		case "fail":
			if e.Shard != nil {
				if s := shardAt(*e.Shard); s != nil {
					s.Fails++
					s.State, s.Worker, s.Err = ShardFailed, e.Worker, e.Error
				}
			}
		case "done":
			if e.Shard != nil {
				if s := shardAt(*e.Shard); s != nil {
					s.State, s.File, s.Err = ShardDone, e.File, ""
					s.Winner = e.Worker
					if e.Cells > 0 {
						s.Cells = e.Cells
					}
					if start, ok := lastStart[*e.Shard]; ok && !start.IsZero() {
						if end := at(e); !end.IsZero() && end.After(start) {
							s.Duration = end.Sub(start)
						}
					}
				}
			}
		case "cached":
			// A cached shard's file was written from the cell cache and
			// validated like any worker's; for resume and status it is done.
			if e.Shard != nil {
				if s := shardAt(*e.Shard); s != nil {
					s.State, s.File, s.Err = ShardDone, e.File, ""
				}
			}
		case "partial":
			st.PartialFile, st.PartialShards, st.PartialCells = e.File, e.Shards, e.Cells
		case "merged":
			st.Merged, st.MergedCells = true, e.Cells
		}
	}
	if !sawPlan {
		return nil, fmt.Errorf("dispatch: journal %s carries no plan event", path)
	}
	return st, nil
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
