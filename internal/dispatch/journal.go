package dispatch

import (
	"encoding/json"
	"fmt"
	"os"
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

// journalLine is one JSONL line of the dispatch journal: an event in its
// JSON form and, on a plan line, the journal's schema version. The
// journal is both the structured log of a dispatch and its resume state.
type journalLine struct {
	ProgressEvent
	V int `json:"v,omitempty"`
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

// write appends e's line, stamped in UTC. The line carries no stream
// version (readers restore it), and a plan line the journal version.
func (j *journal) write(e ProgressEvent) {
	w := journalLine{ProgressEvent: e}
	w.Version, w.Time = 0, e.Time.UTC()
	if e.Kind == ProgressPlan {
		w.V = JournalVersion
	}
	if err := j.enc.Encode(&w); err != nil && j.err == nil {
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
