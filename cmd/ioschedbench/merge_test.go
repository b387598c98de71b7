package main

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/shard"
)

// TestMergeRefusesOversizedGrid: a merge sizes its aggregation by the
// grid the recorded params produce, not by the cells the file holds. A
// one-cell fig5 file whose params ask for 2·10⁹ systems per point is
// refused before anything is sized by them, within a small fixed
// allocation.
func TestMergeRefusesOversizedGrid(t *testing.T) {
	f, err := experiment.RunShard(experiment.ExpFig5, experiment.ShardParams{Systems: 1, Seed: 1, GAPopulation: 4, GAGenerations: 2}, 1, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Shards, f.Runs[0].Grid = 1, shard.Grid{Points: 1, Systems: 1}
	f.Params = json.RawMessage(`{"systems":2000000000,"seed":1,"ga_population":4,"ga_generations":2}`)
	path := filepath.Join(t.TempDir(), "fig5.json")
	if err := f.WriteFileAs(path, shard.EncodingJSON); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = silenceStdout(t, func() error { return runMerge([]string{path}) })
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("merge of a file asking for 2e9 systems: %v, want the grid refused", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("refusing the merge allocated %d bytes, want <= 1 MiB", alloc)
	}
}
