package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
)

// TestProgressLineReplay replays the progress stream of a 1000-unit
// dispatch (3001 events) through the -progress status line. Each redraw
// reads the Tracker's counts, so the replay allocates a bounded amount
// per event rather than a copy of every unit's record.
func TestProgressLineReplay(t *testing.T) {
	const units = 1000
	t0 := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	events := []dispatch.ProgressEvent{{Kind: dispatch.ProgressPlan, Shards: units, Shard: -1, Time: t0}}
	for i := range units {
		at := t0.Add(time.Duration(i) * time.Millisecond)
		events = append(events,
			dispatch.ProgressEvent{Kind: dispatch.ProgressBatch, Shard: i, Cells: 3, Time: t0},
			dispatch.ProgressEvent{Kind: dispatch.ProgressAttempt, Shard: i, Attempt: 1, Worker: "w", Time: at},
			dispatch.ProgressEvent{Kind: dispatch.ProgressDone, Shard: i, Attempt: 1, Worker: "w", Cells: 3, Time: at.Add(time.Millisecond)})
	}
	var out bytes.Buffer
	out.Grow(1 << 20)
	draw := progressLine(&out)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range events {
		draw(e)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 10<<20 {
		t.Errorf("replaying %d events allocated %d bytes, want under 10 MiB", len(events), alloc)
	}
	last := out.String()[strings.LastIndexByte(out.String(), '\r')+1:]
	if !strings.HasPrefix(last, "dispatch: 1000/1000 done, 0 running, 0 failed") {
		t.Errorf("final status line %q", last)
	}
}

// TestDispatchRefusedRunLeavesNoJournal: a dispatch whose plan is refused
// writes no journal, so the corrected run in the same -dir succeeds.
func TestDispatchRefusedRunLeavesNoJournal(t *testing.T) {
	c := newCLI(t)
	if _, stderr, err := c.run("dispatch", "-experiment", "fig5", "-systems", "2000000000", "-dir", "dd"); err == nil || !strings.Contains(stderr, "exceeds") {
		t.Fatalf("dispatch of 2e9 systems: %v\n%s", err, stderr)
	}
	if c.exists("dd/" + dispatch.JournalFileName) {
		t.Fatal("the refused dispatch left a journal")
	}
	c.must("dispatch", "-experiment", "fig5", "-systems", "2", "-gapop", "4", "-gagens", "2", "-dir", "dd")
}
