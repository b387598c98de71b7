package dispatch

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// JournalFileName is the journal's name inside a dispatch directory or a
// coordinator run directory.
const JournalFileName = "dispatch.journal"

// partialFileName is the auto-partial-merge output's name inside the
// dispatch directory (Options.PartialEvery).
const partialFileName = "partial.json"

// JournalVersion identifies the journal's JSONL schema, recorded in the
// plan event ("v"). A plan event without the field is version 1 (the
// field postdates the first journals). Readers reject newer versions;
// unknown event types within a known version are skipped, so adding
// event types does not require a bump. The normative spec is
// docs/DISPATCH.md.
const JournalVersion = 1

// event is one lifecycle event of a run: what Ledger.record writes to
// the journal and the progress stream, and what ReadJournal and Tracker
// fold (JournalState.apply). wire holds only what the journal alone
// carries, the plan and batch fields; line fills in the rest.
type event struct {
	ProgressEvent
	wire journalEvent
}

// sinks selects where Ledger.record writes an event: most lifecycle
// events go to both, the rest model where the journal and the stream
// differ (docs/DISPATCH.md tabulates them).
type sinks uint8

const (
	toJournal sinks = 1 << iota
	toStream
	toBoth = toJournal | toStream
)

// journalEvent is one JSONL line of the dispatch journal. The journal is
// both the structured log of a dispatch and its resume state: "done"
// events name the shards that need not re-run, and the leading "plan"
// event pins which run the directory belongs to.
type journalEvent struct {
	Time  string `json:"time,omitempty"`
	Event string `json:"event"`

	// plan
	V         int             `json:"v,omitempty"`
	Selection string          `json:"selection,omitempty"`
	Shards    int             `json:"shards,omitempty"`
	Params    json.RawMessage `json:"params,omitempty"`
	// Balance names the decomposition of a balanced dispatch ("cost");
	// absent on round-robin plans, so old journals read unchanged.
	Balance string `json:"balance,omitempty"`

	// attempt / steal / fail / done / batch
	Shard   *int   `json:"shard,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Error   string `json:"error,omitempty"`
	File    string `json:"file,omitempty"`

	// batch: the realised decomposition (compatible v1 additions)
	Kind   string  `json:"kind,omitempty"`
	Parent *int    `json:"parent,omitempty"`
	Spec   string  `json:"spec,omitempty"`
	Weight float64 `json:"weight,omitempty"`

	// merged / partial / batch / done (cell counts)
	Cells int `json:"cells,omitempty"`
}

// line is e's journal line: the one place a journal line is built.
// Run-level events (Shard -1) carry no shard.
func (e *event) line() journalEvent {
	w := e.wire
	w.Time, w.Event = e.Time.UTC().Format(time.RFC3339Nano), string(e.Kind)
	w.Shards, w.Attempt, w.Worker, w.Error, w.File, w.Cells = e.Shards, e.Attempt, e.Worker, e.Err, e.File, e.Cells
	if shard := e.Shard; shard >= 0 {
		w.Shard = &shard // not &e.Shard, which would move all of e to the heap
	}
	return w
}

// event decodes a journal line; a missing shard reads as -1 and an
// unparseable time as the zero time.
func (w *journalEvent) event() event {
	e := event{ProgressEvent: ProgressEvent{Kind: ProgressKind(w.Event), Shards: w.Shards, Shard: -1,
		Attempt: w.Attempt, Worker: w.Worker, Err: w.Error, File: w.File, Cells: w.Cells}, wire: *w}
	if w.Shard != nil {
		e.Shard = *w.Shard
	}
	e.Time, _ = time.Parse(time.RFC3339Nano, w.Time)
	return e
}

// journal appends lines to the dispatch journal file for its ledger's
// goroutine. Write errors are sticky and reported by Close, so a full
// disk cannot silently disable resumability.
type journal struct {
	f      *os.File
	enc    *json.Encoder
	closed bool
	err    error
}

// openJournal opens (or creates) the journal at path for appending.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dispatch: journal: %w", err)
	}
	return &journal{f: f, enc: json.NewEncoder(f)}, nil
}

func (j *journal) write(w journalEvent) {
	if err := j.enc.Encode(w); err != nil && j.err == nil {
		j.err = err
	}
}

// Close flushes the journal and reports the first write error, if any.
// It is idempotent: a driver closes explicitly on its success path (so
// a failed journal surfaces as an error) and again via defer on the
// error paths.
func (j *journal) Close() error {
	if !j.closed {
		j.closed = true
		if err := j.f.Close(); err != nil && j.err == nil {
			j.err = err
		}
	}
	return j.err
}
