package shard

import "fmt"

// Cell-batch files: the unit of balanced dispatch. A batch file holds an
// arbitrary explicit subset of each run's cells — whatever a cost-packed
// decomposition assigned to one batch — instead of the implicit
// round-robin share a (Shards, Index) plan owns. The Batch header makes
// the file self-describing, so resume can recover exactly which cells a
// directory already covers, and MergeBatches can verify a set of batch
// files forms a complete cover before emitting the single-shard
// equivalent — byte-identical to the unsharded run, like every other
// merge path.

// BatchInfo marks a file as a cell batch and records which cells it
// holds: one strictly-ascending global-cell-index set per run, parallel
// to Runs. Batch files always declare the trivial 1/0 plan and are never
// partial covers — the batch header *is* their decomposition.
type BatchInfo struct {
	Cells [][]int `json:"cells"`
}

// validateBatch enforces the batch-file contract against the file's runs:
// trivial 1/0 plan, no Partial header, one in-range strictly-ascending
// cell set per run.
func (f *File) validateBatch() error {
	if f.Shards != 1 || f.Index != 0 {
		return fmt.Errorf("shard: batch file declares shard %d/%d, want 0/1", f.Index, f.Shards)
	}
	if f.Partial != nil {
		return fmt.Errorf("shard: batch file carries a partial header")
	}
	if len(f.Batch.Cells) != len(f.Runs) {
		return fmt.Errorf("shard: batch header lists %d cell sets for %d runs", len(f.Batch.Cells), len(f.Runs))
	}
	for ri, r := range f.Runs {
		prev := -1
		for _, g := range f.Batch.Cells[ri] {
			if g < 0 || g >= r.Grid.Cells() {
				return fmt.Errorf("shard: run %q batch cell %d outside %dx%d grid",
					r.Experiment, g, r.Grid.Points, r.Grid.Systems)
			}
			if g <= prev {
				return fmt.Errorf("shard: run %q batch cells not strictly ascending at %d", r.Experiment, g)
			}
			prev = g
		}
	}
	return nil
}
