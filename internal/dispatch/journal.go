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

// journal appends events to the dispatch journal file for its ledger's
// goroutine. Write errors are sticky and reported by Close, so a full
// disk cannot silently disable resumability. Every line takes its time
// from the injected clock.
type journal struct {
	f      *os.File
	enc    *json.Encoder
	now    func() time.Time
	closed bool
	err    error
}

// openJournal opens (or creates) the journal at path for appending.
func openJournal(path string, now func() time.Time) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dispatch: journal: %w", err)
	}
	return &journal{f: f, enc: json.NewEncoder(f), now: now}, nil
}

// plan records the run a fresh journal belongs to. The balance is
// recorded only for balanced plans, so round-robin journals keep their
// historical bytes.
func (j *journal) plan(spec Spec, params []byte, balance string) {
	e := journalEvent{Event: "plan", V: JournalVersion, Selection: spec.Selection, Shards: spec.Shards, Params: params}
	if balance != BalanceRoundRobin {
		e.Balance = balance
	}
	j.write(e)
}

func (j *journal) write(e journalEvent) {
	e.Time = j.now().UTC().Format(time.RFC3339Nano)
	if err := j.enc.Encode(e); err != nil && j.err == nil {
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
