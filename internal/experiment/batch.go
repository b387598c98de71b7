package experiment

// Cell-batch runners: the experiment layer's side of pluggable
// decomposition. RunBatchCached is RunShardCached with an explicit
// per-run cell set in place of the implicit round-robin share, producing
// a batch file (shard.BatchInfo) that merges through shard.MergeBatches;
// CacheProbe.Batch is the matching whole-batch cache probe. Both preserve
// the determinism invariant: a cell's payload depends only on its grid
// path, never on which batch computed it.

import (
	"fmt"
	"slices"

	"repro/internal/cellcache"
	"repro/internal/shard"
)

// newBatchFile starts the batch file holding cells[ri] of the
// selection's run ri, each set validated, de-duplicated and sorted.
func newBatchFile(selection string, p ShardParams, parallelism int, cells [][]int) (*selectionFile, error) {
	s, err := newSelectionFile(selection, p, parallelism, 1, 0)
	if err != nil {
		return nil, err
	}
	if len(cells) != len(s.names) {
		return nil, fmt.Errorf("experiment: batch lists %d cell sets for %d runs", len(cells), len(s.names))
	}
	canon := make([][]int, len(cells))
	for ri, set := range cells {
		for _, g := range set {
			if g < 0 || g >= s.grids[ri].Cells() {
				return nil, fmt.Errorf("experiment: %s batch cell %d outside %dx%d grid",
					s.names[ri], g, s.grids[ri].Points, s.grids[ri].Systems)
			}
		}
		// Non-nil even when empty, so the header reads "[]", never "null".
		canon[ri] = append([]int{}, set...)
		slices.Sort(canon[ri])
		canon[ri] = slices.Compact(canon[ri])
	}
	s.f.Batch = &shard.BatchInfo{Cells: canon}
	return s, nil
}

// RunBatchCached evaluates exactly the given cells of the selection —
// cells[ri] holds run ri's global cell indices, parallel to
// SelectionRuns' order — and returns a batch file recording them (cache
// optional, nil = compute everything). Runs sharing a cell key and a
// cell set are computed once and recorded under each name, exactly like
// RunShard.
func RunBatchCached(selection string, p ShardParams, parallelism int, cells [][]int, cache *cellcache.Store) (*shard.File, error) {
	s, err := newBatchFile(selection, p, parallelism, cells)
	if err != nil {
		return nil, err
	}
	return s.run(cache)
}
