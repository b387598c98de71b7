package shard

import (
	"encoding/json"
	"fmt"
	"os"
)

// FormatVersion identifies the shard file layout; readers reject files
// written by an incompatible future layout instead of mis-merging them.
const FormatVersion = 1

// Cell is one evaluated grid cell.
type Cell struct {
	// Point and System locate the cell on its run's outer × inner grid
	// (utilisation-point index × system index for the sweep runners).
	Point  int `json:"point"`
	System int `json:"system"`
	// Seed is the derived sub-seed the cell's computation drew its
	// randomness from (exec.DeriveSeed over the (runner, point, system)
	// path). It is recorded so any cell of a merged sweep can be
	// re-verified in isolation.
	Seed int64 `json:"seed"`
	// Data is the runner-specific payload (per-method verdicts for the
	// schedulability sweep, quality outcomes for the metric sweeps, …) as
	// the run's PayloadCodec types it: a *T for a typed codec, the
	// json.RawMessage for the generic JSON codec.
	Data any `json:"data"`
}

// Grid gives the dimensions of one run's cell grid.
type Grid struct {
	// Points is the outer dimension (utilisation points, device counts,
	// or 1 for single-point studies).
	Points int `json:"points"`
	// Systems is the inner dimension (systems per point, or the number of
	// simulated designs for the motivation experiment).
	Systems int `json:"systems"`
}

// Cells returns the total number of cells on the grid.
func (g Grid) Cells() int { return g.Points * g.Systems }

// MaxGridCells bounds a run's grid. The largest realistic sweep — the
// paper scale — is 15 utilisation points × 1000 systems; the bound
// leaves three orders of magnitude of headroom while keeping a corrupt
// or hand-edited header from driving an OOM-scale allocation (or an
// int-overflowed Cells()) at merge time.
const MaxGridCells = 16 << 20

// Validate rejects grids no runner produces — negative, or over
// MaxGridCells by a check that cannot overflow — so a corrupt or
// hand-edited file, or params asking for an absurd grid, fail with a
// clean error instead of a panic or an absurd allocation.
func (g Grid) Validate() error {
	if g.Points < 0 || g.Systems < 0 {
		return fmt.Errorf("shard: negative grid %dx%d", g.Points, g.Systems)
	}
	if g.Systems > 0 && g.Points > MaxGridCells/g.Systems {
		return fmt.Errorf("shard: grid %dx%d exceeds %d cells", g.Points, g.Systems, MaxGridCells)
	}
	return nil
}

// Index returns the global cell index of (point, system), or an error if
// the cell lies outside the grid.
func (g Grid) Index(point, system int) (int, error) {
	if point < 0 || point >= g.Points || system < 0 || system >= g.Systems {
		return 0, fmt.Errorf("shard: cell (%d,%d) outside %dx%d grid", point, system, g.Points, g.Systems)
	}
	return point*g.Systems + system, nil
}

// Run holds one experiment runner's sharded cells.
type Run struct {
	Experiment string `json:"experiment"`
	Grid       Grid   `json:"grid"`
	// PayloadVersion identifies the cell-payload layout (the registered
	// experiment codec's version), so a reader rejects cells written by
	// an incompatible layout instead of silently mis-decoding them. 0 in
	// files written before versions were recorded.
	PayloadVersion int    `json:"payload_version,omitempty"`
	Cells          []Cell `json:"cells"`
}

// File is the versioned output of one shard process.
type File struct {
	Version int `json:"version"`
	// Selection is the experiment selection the run was invoked with
	// ("all" or a single experiment name); merge re-renders exactly that
	// selection.
	Selection string `json:"selection"`
	// Shards and Index identify the decomposition: this file holds the
	// cells with globalIndex mod Shards == Index.
	Shards int `json:"shards"`
	Index  int `json:"shard_index"`
	// Params records the run parameterisation (seed, systems, GA budget,
	// …) so merge can rebuild the exact configuration and reject shard
	// files from different runs. The payload is owned by the experiment
	// layer; shard only compares it for equality.
	Params json.RawMessage `json:"params"`
	// Host is the producing host's fingerprint, recorded only for
	// selections containing a non-reproducible experiment (whose
	// payloads measure the host rather than derive from the seed; see
	// experiment.Reproducible). Reproducible runs leave it empty, so
	// their files carry no host-dependent byte. Merging files from
	// different hosts joins the distinct fingerprints.
	Host string `json:"host,omitempty"`
	// Partial, when set, marks the file as an incomplete cover written by
	// MergePartial: the union of the recorded present shards of the
	// original decomposition, not a full run. Complete files never carry
	// it, so a complete MergePartial output is byte-identical to Merge's.
	Partial *PartialInfo `json:"partial,omitempty"`
	// Batch, when set, marks the file as a cell batch: an explicit subset
	// of each run's cells assigned by a pluggable decomposition rather
	// than the round-robin (Shards, Index) rule. Batch files declare the
	// trivial 1/0 plan and merge through MergeBatches. Complete merged
	// covers never carry the header.
	Batch *BatchInfo `json:"batch,omitempty"`
	// Runs holds the sharded cells, one entry per experiment runner, in
	// the selection's canonical order.
	Runs []Run `json:"runs"`
	// Path is the file the shard was read from ("" for files built in
	// memory); ReadFile records it so validation errors can name the
	// offending file instead of an opaque shard index.
	Path string `json:"-"`
	// Encoding is the container layout the file was decoded from
	// (EncodingJSON or EncodingBinary; "" for files built in memory). An
	// annotation like Path — it never round-trips through the encoders,
	// and both encodings decode to the same File.
	Encoding string `json:"-"`
}

// CellCount returns the total number of cells across the file's runs.
func (f *File) CellCount() int {
	n := 0
	for _, r := range f.Runs {
		n += len(r.Cells)
	}
	return n
}

// Plan is a validated (shards, index) decomposition.
type Plan struct {
	Shards, Index int
}

// NewPlan validates the decomposition: at least one shard, and an index
// inside [0, shards).
func NewPlan(shards, index int) (Plan, error) {
	if shards < 1 {
		return Plan{}, fmt.Errorf("shard: shard count %d, need >= 1", shards)
	}
	if index < 0 || index >= shards {
		return Plan{}, fmt.Errorf("shard: shard index %d outside [0,%d)", index, shards)
	}
	return Plan{Shards: shards, Index: index}, nil
}

// Owns reports whether the plan's shard owns global cell index g.
func (p Plan) Owns(g int) bool { return g%p.Shards == p.Index }

// Selector returns the (point, system) ownership predicate for a grid
// with the given inner dimension, in the form the experiment layer's
// cell-subset runners take.
func (p Plan) Selector(inner int) func(point, system int) bool {
	return func(point, system int) bool { return p.Owns(point*inner + system) }
}

// WriteFile writes the encoded file to path.
func (f *File) WriteFile(path string) error {
	data, err := f.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// Decode parses an encoded file — auto-detecting the container layout
// from its leading bytes (the v2 magic, else v1 JSON) — and validates
// its version and decomposition fields. Both layouts decode to the same
// File, so every reader accepts any mix of encodings; Encoding records
// which one the file carried.
func Decode(data []byte) (*File, error) {
	if IsBinary(data) {
		return decodeBinary(data)
	}
	f, err := decodeJSON(data)
	if err != nil {
		return nil, fmt.Errorf("shard: decode: %w", err)
	}
	if err := f.validateDecoded(); err != nil {
		return nil, err
	}
	return f, nil
}

// validateDecoded holds the structural checks both decoders share:
// format version, the grid/cell-count sanity of every run and the
// decomposition header (owner).
func (f *File) validateDecoded() error {
	if f.Version != FormatVersion {
		return fmt.Errorf("shard: file format version %d, this build reads %d", f.Version, FormatVersion)
	}
	for _, r := range f.Runs {
		if err := r.Grid.Validate(); err != nil {
			return fmt.Errorf("shard: run %q: %w", r.Experiment, err)
		}
		if len(r.Cells) > r.Grid.Cells() {
			return fmt.Errorf("shard: run %q holds %d cells for a %dx%d grid",
				r.Experiment, len(r.Cells), r.Grid.Points, r.Grid.Systems)
		}
	}
	_, err := f.owner()
	return err
}

// ReadFile reads and decodes one shard file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", path, err)
	}
	f.Path = path
	return f, nil
}
