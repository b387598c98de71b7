// Package shard splits an experiment's (utilisation point × system) cell
// grid into N deterministic shards so the grid can run as N independent
// processes — on one host or many — and be merged back into exactly the
// aggregate a single-process run produces.
//
// The decomposition leans on the execution engine's central invariant
// (internal/exec): every grid cell derives its randomness from a private
// sub-seed mixed over the (runner, point, system) path, so a cell's value
// does not depend on which process — or which machine — evaluates it.
// Sharding therefore only partitions the key space:
//
//   - a cell's global index on an outer × inner grid is
//     g = point·inner + system;
//   - shard i of N owns the cells with g mod N == i (round-robin, so every
//     shard carries a near-equal slice of every utilisation point — the
//     per-point cost varies far more than the per-system cost);
//   - each shard process writes one versioned File of its cells — v1
//     JSON or the v2 binary container (codec.go), two serialisers of the
//     same typed payloads — with the derived seed recorded per cell for
//     provenance;
//   - Merge validates that N files form one complete, disjoint cover of
//     the grid (same run parameters, same shard count, distinct indices,
//     every cell present exactly once and owned by its file's shard) and
//     returns the single-shard equivalent file with cells in grid order.
//
// A merged file is itself a valid 1-shard file, so merged covers can be
// re-read and re-rendered, and an interrupted sweep resumes by re-running
// only the missing shard indices. ValidateCells proves a single file
// complete (exactly the cells it owns), which is what the dispatch driver
// (internal/dispatch) uses to tell a finished shard from a partial one
// before retrying it.
//
// MergePartial and MergeBatches are Merge with one rule relaxed
// (merge.go). MergePartial, the streaming counterpart, accepts any
// mutually-consistent subset of a run's files — regular shards and
// previously-written partial covers alike — and returns a PartialCover
// with the held cells in grid order plus exact coverage accounting
// (per-run cell counts, the missing shard indices). An incomplete
// cover's file carries a PartialInfo header recording its provenance; a
// complete one is byte-identical to Merge's output, which is what lets
// provisional results converge to — never diverge from — the full run's.
// MergeBatches lets cell-batch files overlap: the first copy of a cell
// wins. A file of more than MaxCells shards is rejected.
//
// The on-disk file layout — header fields, cell keying, params-mismatch
// rules, the merge invariants and the partial-cover rules — is specified
// in docs/SHARD_FORMAT.md; FormatVersion tracks that spec's version.
package shard
