// Package experiment is the pluggable registry of the paper's studies —
// and of any study added since. Each experiment (docs/EXPERIMENTS.md)
// is one Experiment value registered under its CLI/shard-file name:
//
//	fig5        — schedulable fraction vs utilisation for the five methods
//	fig6, fig7  — Ψ and Υ vs utilisation for the four offline methods
//	              (one shared cell grid, two aggregations)
//	table1      — hardware cost of the controller designs (closed-form)
//	motivation  — remote-write jitter over the NoC vs pre-loaded controller
//	ablation    — design-choice variants of the static and GA schedulers
//	multidevice — partitioned-controller scaling with device count
//	tailq       — per-job quality tail distribution (the registry's worked
//	              extensibility example: registered, never plumbed)
//
// The generic engines drive any registered experiment: Run evaluates
// and aggregates in process, RunCells/RunShard evaluate arbitrary cell
// subsets for cross-process sharding, FromCells rebuilds exact results
// from complete merged sets, and FromCellsPartial renders provisional
// results from any subset with an exact Coverage report — the same
// Aggregate hook on every path, restricted to the present cells, so
// partial output converges byte-identically to the full run's once the
// cover completes. The engines are the only way to run an experiment;
// a RunContext comes from ShardParams.Context.
//
// Every experiment is deterministic given its seed: cells derive their
// randomness from their (experiment, point, system) grid path via
// exec.DeriveSeed, aggregation folds in grid order with fixed-order
// float sums, and payloads round-trip losslessly through each
// experiment's versioned codec.
//
// Cells carry their payload as the experiment's typed value (a *T under
// the typed shard.PayloadCodec each built-in registers), from
// computation through merge to aggregation: FromCells reads the values
// it is handed, v1 JSON and v2 binary files are two serialisers of them,
// and the cell cache stores each cell as its packed v2 record. Only an
// experiment without a typed codec carries its payload as JSON, which
// aggregation decodes through Codec().New. The paper's full scale (1000 systems
// per point, GA population 300 × 500 generations) is reproduced by
// PaperScale; the defaults are a calibrated scaled-down configuration
// that preserves every qualitative relationship and finishes in seconds
// (docs/EXPERIMENTS.md records both).
package experiment
