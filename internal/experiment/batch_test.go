package experiment

import (
	"runtime"
	"testing"

	"repro/internal/cellcache"
	"repro/internal/shard"
)

// splitPlan runs the given decomposition over a selection's plan and
// returns the per-part cell sets: parts[p][ri] = run ri's cells in part p.
func splitPlan(t *testing.T, rp *RunPlan, d shard.Decomposition, parts int) [][][]int {
	t.Helper()
	assign, err := d.Split(rp.Grids, parts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][]int, parts)
	for pi := range out {
		out[pi] = make([][]int, len(rp.Grids))
	}
	for ri := range rp.Grids {
		// Group members share their representative's assignment, exactly
		// as balanced dispatch copies it.
		src := assign[rp.Groups[ri]]
		for g, part := range src {
			out[part][ri] = append(out[part][ri], g)
		}
	}
	return out
}

func TestBatchMergeByteIdenticalToUnsharded(t *testing.T) {
	p := ShardParams{Systems: 3, Seed: 7, GAPopulation: 8, GAGenerations: 4}
	for _, selection := range []string{ExpFig5, ExpAll} {
		unsharded, err := RunShard(selection, p, 1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := unsharded.Encode()
		if err != nil {
			t.Fatal(err)
		}
		rp, err := PlanSelection(selection, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []shard.Decomposition{shard.RoundRobin{}, shard.CostPacked{Costs: rp.Costs}} {
			var files []*shard.File
			for _, cells := range splitPlan(t, rp, d, 3) {
				f, err := RunBatchCached(selection, p, 1, cells, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.ValidateCells(); err != nil {
					t.Fatalf("%s/%s: batch invalid: %v", selection, d.Name(), err)
				}
				files = append(files, f)
			}
			merged, dups, err := shard.MergeBatches(files)
			if err != nil {
				t.Fatalf("%s/%s: %v", selection, d.Name(), err)
			}
			if dups != 0 {
				t.Errorf("%s/%s: %d duplicates from disjoint batches", selection, d.Name(), dups)
			}
			got, err := merged.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(ref) {
				t.Errorf("%s/%s: batch merge differs from the unsharded run", selection, d.Name())
			}
		}
	}
}

func TestCachedBatchServesWarmStore(t *testing.T) {
	p := ShardParams{Systems: 2, Seed: 1, GAPopulation: 8, GAGenerations: 5}
	cells := [][]int{{0, 3, 5}}
	store, err := cellcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Cold probe misses; a computed batch deposits; the warm probe must
	// return byte-identical bytes.
	if _, ok, err := NewCacheProbe(store).Batch(ExpFig5, p, cells); err != nil || ok {
		t.Fatalf("cold probe = %v, %v; want miss", ok, err)
	}
	computed, err := RunBatchCached(ExpFig5, p, 1, cells, store)
	if err != nil {
		t.Fatal(err)
	}
	warm, ok, err := NewCacheProbe(store).Batch(ExpFig5, p, cells)
	if err != nil || !ok {
		t.Fatalf("warm probe = %v, %v; want hit", ok, err)
	}
	a, err := computed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("cached batch differs from the computed batch")
	}
}

func TestPlanSelectionGroupsAndCosts(t *testing.T) {
	p := ShardParams{Systems: 2, Seed: 1, GAPopulation: 10, GAGenerations: 6}
	rp, err := PlanSelection(ExpAll, p)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]int)
	for ri, name := range rp.Names {
		byName[name] = ri
	}
	// fig6 and fig7 share one cell computation; their group ids collapse.
	if rp.Groups[byName[ExpFig7]] != byName[ExpFig6] {
		t.Errorf("fig7 group = %d, want fig6's index %d", rp.Groups[byName[ExpFig7]], byName[ExpFig6])
	}
	if rp.Groups[byName[ExpFig5]] != byName[ExpFig5] {
		t.Errorf("fig5 not its own group")
	}
	// fig5's coster scales by utilisation: the last point costs more than
	// the first, and all costs are positive.
	costs := rp.Costs[byName[ExpFig5]]
	g := rp.Grids[byName[ExpFig5]]
	if first, last := costs[0], costs[(g.Points-1)*g.Systems]; !(last > first) || first <= 0 {
		t.Errorf("fig5 costs not utilisation-scaled: first %v last %v", first, last)
	}
	if rp.TotalCost([][]int{nil}) != 0 {
		t.Error("TotalCost of empty sets != 0")
	}
	if rp.TotalCost(rowsAll(rp)) <= 0 {
		t.Error("TotalCost of everything <= 0")
	}
}

// TestPlanSelectionAllocatesItsCostTable: pricing a plan allocates its
// cost table, 8 bytes a cell, plus a constant — never per-cell scratch,
// which every ledger open would pay at paper scale and beyond.
func TestPlanSelectionAllocatesItsCostTable(t *testing.T) {
	p := ShardParams{Systems: 2000, Seed: 1}
	for _, selection := range []string{ExpFig5, ExpAll} {
		rp, err := PlanSelection(selection, p)
		if err != nil {
			t.Fatal(err)
		}
		cells := 0
		for _, g := range rp.Grids {
			cells += g.Cells()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := PlanSelection(selection, p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(cells)+64<<10 {
			t.Errorf("PlanSelection(%s) over %d cells allocated %d bytes, want <= 8 a cell + 64 KiB", selection, cells, alloc)
		}
	}
}

func rowsAll(rp *RunPlan) [][]int {
	all := make([][]int, len(rp.Grids))
	for ri, g := range rp.Grids {
		for i := 0; i < g.Cells(); i++ {
			all[ri] = append(all[ri], i)
		}
	}
	return all
}
