package experiment

// Cell-batch runners: the experiment layer's side of pluggable
// decomposition. RunBatchCached is RunShardCached with an explicit
// per-run cell set in place of the implicit round-robin share, producing
// a batch file (shard.BatchInfo) that merges through shard.MergeBatches;
// CachedBatch is the matching whole-batch cache probe. Both preserve the
// determinism invariant: a cell's payload depends only on its grid path,
// never on which batch computed it.

import (
	"fmt"
	"sort"

	"repro/internal/cellcache"
	"repro/internal/shard"
)

// batchSets validates and canonicalises per-run cell sets against the
// selection's runs: one set per run, each de-duplicated, sorted and
// in-range.
func batchSets(names []string, grids []shard.Grid, cells [][]int) ([][]int, error) {
	if len(cells) != len(names) {
		return nil, fmt.Errorf("experiment: batch lists %d cell sets for %d runs", len(cells), len(names))
	}
	canon := make([][]int, len(names))
	for ri := range names {
		member := make(map[int]bool, len(cells[ri]))
		for _, g := range cells[ri] {
			if g < 0 || g >= grids[ri].Cells() {
				return nil, fmt.Errorf("experiment: %s batch cell %d outside %dx%d grid",
					names[ri], g, grids[ri].Points, grids[ri].Systems)
			}
			member[g] = true
		}
		canon[ri] = make([]int, 0, len(member))
		for g := range member {
			canon[ri] = append(canon[ri], g)
		}
		sort.Ints(canon[ri])
	}
	return canon, nil
}

// restrict turns the file into a cell batch holding cells[ri] of run ri
// (validated and canonicalised by batchSets).
func (s *selectionFile) restrict(cells [][]int) error {
	canon, err := batchSets(s.names, s.grids, cells)
	if err != nil {
		return err
	}
	s.f.Shards, s.f.Index, s.f.Batch = 1, 0, &shard.BatchInfo{Cells: canon}
	return nil
}

// RunBatchCached evaluates exactly the given cells of the selection —
// cells[ri] holds run ri's global cell indices, parallel to
// SelectionRuns' order — and returns a batch file recording them (cache
// optional, nil = compute everything). Runs sharing a cell key and a
// cell set are computed once and recorded under each name, exactly like
// RunShard.
func RunBatchCached(selection string, p ShardParams, parallelism int, cells [][]int, cache *cellcache.Store) (*shard.File, error) {
	s, err := newSelectionFile(selection, p, parallelism, 1, 0)
	if err == nil {
		err = s.restrict(cells)
	}
	if err != nil {
		return nil, err
	}
	rc := s.rc.WithCache(cache)
	if _, err := s.fill(func(e Experiment, _ shard.Grid, sel CellSelector) ([]shard.Cell, bool, error) {
		cs, _, err := runCells(e, rc, sel)
		return cs, true, err
	}); err != nil {
		return nil, err
	}
	return s.f, nil
}

// CachedBatch builds the batch purely from the cache — no cell is
// computed. It returns ok=false (with a nil file) as soon as any listed
// cell is absent; a true return carries a file byte-identical to what
// RunBatchCached would produce for the same cells. Each cache key the
// selection touches is loaded once.
func CachedBatch(cache *cellcache.Store, selection string, p ShardParams, cells [][]int) (*shard.File, bool, error) {
	return NewCacheProbe(cache).Batch(selection, p, cells)
}
