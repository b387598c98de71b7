package dispatch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cellcache"
	"repro/internal/experiment"
)

// TestDispatchWarmCache: a dispatch whose cell cache already holds every
// cell serves all shards from the cache — journalling them as "cached",
// never queueing them to a worker — and still merges byte-identically to
// the unsharded run. The worker pool refuses every task, so any re-queue
// is a hard failure, not a silent slowdown.
func TestDispatchWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpAll, 3)
	want := refEncoded(t, spec)
	cacheDir := t.TempDir()

	// Cold pass with honest workers: Options.Cache deposits every
	// validated shard file's cells into the store.
	cold, err := cellcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, pool(3, goodRun), Options{Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Cached != 0 || res.Ran != 3 {
		t.Fatalf("cold cached/ran = %d/%d, want 0/3", res.Cached, res.Ran)
	}

	// Warm pass over a fresh directory: no journal to resume from, no
	// working workers — only the cache can satisfy the shards.
	warm, err := cellcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	refuse := pool(3, func(context.Context, Task) error {
		return fmt.Errorf("worker invoked despite a warm cache")
	})
	dir := t.TempDir()
	var events []ProgressEvent
	tr := NewTracker()
	res, err = Run(context.Background(), spec, refuse, Options{
		Cache: warm,
		Dir:   dir,
		Progress: func(e ProgressEvent) {
			tr.Observe(e)
			events = append(events, e)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Cached != 3 || res.Ran != 0 || res.Resumed != 0 || res.Retries != 0 {
		t.Fatalf("warm cached/ran/resumed/retries = %d/%d/%d/%d, want 3/0/0/0",
			res.Cached, res.Ran, res.Resumed, res.Retries)
	}

	// The progress stream reported every shard as cached, none attempted.
	snap := tr.Snapshot()
	if snap.Cached != 3 || snap.Done != 3 || !snap.Merged {
		t.Fatalf("tracker snapshot = %+v, want 3 cached and merged", snap)
	}
	for _, e := range events {
		if e.Kind == ProgressAttempt {
			t.Fatalf("attempt event for shard %d despite a warm cache", e.Shard)
		}
	}

	// The journal records the shards as cached — and a resume over the
	// same directory (cache off, workers broken) trusts the written files.
	js, err := ReadJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := js.DoneCount(); got != 3 {
		t.Fatalf("journal records %d shards done, want 3", got)
	}
	raw, err := os.ReadFile(filepath.Join(dir, JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), `"event":"cached"`); n != 3 {
		t.Fatalf("journal carries %d cached events, want 3:\n%s", n, raw)
	}
	res, err = Run(context.Background(), spec, refuse, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Resumed != 3 || res.Cached != 0 || res.Ran != 0 {
		t.Fatalf("resume resumed/cached/ran = %d/%d/%d, want 3/0/0", res.Resumed, res.Cached, res.Ran)
	}
}

// TestDispatchPartialCache: with only some cells cached, the warm shards
// come from the cache and the rest run normally — the two paths mix in
// one dispatch and the merge stays byte-identical.
func TestDispatchPartialCache(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 3)
	want := refEncoded(t, spec)

	// Seed the cache with shard 1's cells only.
	store, err := cellcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := experiment.RunShard(spec.Selection, spec.Params, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := experiment.DepositFile(store, f, spec.Params); err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), spec, pool(2, goodRun), Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Cached != 1 || res.Ran != 2 {
		t.Fatalf("cached/ran = %d/%d, want 1/2", res.Cached, res.Ran)
	}
}

// TestWarmPlanLoadsEachKeyOnce: the plan-time cache probe reads each
// cache key once for the whole plan, not once per unit — a warm plan of
// many units reads every pack under each key once.
func TestWarmPlanLoadsEachKeyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpAll, 50)
	dir := t.TempDir()
	store, err := cellcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := experiment.RunShard(spec.Selection, spec.Params, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := experiment.DepositFile(store, f, spec.Params); err != nil {
		t.Fatal(err)
	}
	packs, err := filepath.Glob(filepath.Join(dir, "*", "*", "*.pack"))
	if err != nil {
		t.Fatal(err)
	}

	warm, err := cellcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	refuse := pool(2, func(context.Context, Task) error {
		return fmt.Errorf("worker invoked despite a warm cache")
	})
	res, err := Run(context.Background(), spec, refuse, Options{Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, refEncoded(t, spec))
	if res.Cached != spec.Shards {
		t.Fatalf("%d of %d units served from the cache", res.Cached, spec.Shards)
	}
	// The deposit wrote one pack per key, so reading each pack once is
	// loading each key once.
	if st := warm.Stats(); st.PackReads != uint64(len(packs)) || st.Misses != 0 {
		t.Fatalf("warm plan of %d units: stats %+v, want each of the %d packs read once and no misses",
			spec.Shards, st, len(packs))
	}
}
