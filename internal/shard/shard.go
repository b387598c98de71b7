package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
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

// validate rejects grids no runner produces, so a corrupt or hand-edited
// file fails with a clean error instead of a panic or an absurd
// allocation at merge time.
func (g Grid) validate() error {
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

// label names the file in error messages: its path when known, the
// shard index otherwise.
func (f *File) label() string {
	if f.Path != "" {
		return f.Path
	}
	return fmt.Sprintf("shard %d", f.Index)
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

// Encode renders the file as indented JSON. The encoding is deterministic
// — struct fields in declaration order, cells in the order they are held
// — so identical runs produce byte-identical shard files.
func (f *File) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("shard: encode: %w", err)
	}
	return append(data, '\n'), nil
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
// format version, decomposition (batch header or plan indices) and the
// grid/cell-count sanity of every run.
func (f *File) validateDecoded() error {
	if f.Version != FormatVersion {
		return fmt.Errorf("shard: file format version %d, this build reads %d", f.Version, FormatVersion)
	}
	if f.Batch != nil {
		if err := f.validateBatch(); err != nil {
			return err
		}
	} else if _, _, err := f.indices(); err != nil {
		return err
	}
	for _, r := range f.Runs {
		if err := r.Grid.validate(); err != nil {
			return fmt.Errorf("shard: run %q: %w", r.Experiment, err)
		}
		if len(r.Cells) > r.Grid.Cells() {
			return fmt.Errorf("shard: run %q holds %d cells for a %dx%d grid",
				r.Experiment, len(r.Cells), r.Grid.Points, r.Grid.Systems)
		}
	}
	return nil
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

// ValidateCells verifies that every run holds exactly the cells the file
// owns — the (Shards, Index) plan's round-robin share, for a file
// carrying a Partial header the union of its recorded present shards, or
// for a file carrying a Batch header its declared cell sets: each cell
// in range, owned, present exactly once, and none missing. Decode does
// not enforce completeness — a process killed mid-run can legitimately
// persist a partial file that later attempts replace — so drivers that
// must detect a truncated or partially-written shard (e.g. dispatch
// retry logic) call this before accepting a worker's output.
func (f *File) ValidateCells() error {
	if f.Batch != nil {
		return f.validateBatchCells()
	}
	owns, err := f.ownership()
	if err != nil {
		return err
	}
	for _, r := range f.Runs {
		if err := r.Grid.validate(); err != nil {
			return fmt.Errorf("shard: run %q: %w", r.Experiment, err)
		}
		filled := make([]bool, r.Grid.Cells())
		for _, c := range r.Cells {
			g, err := r.Grid.Index(c.Point, c.System)
			if err != nil {
				return fmt.Errorf("shard: run %q: %w", r.Experiment, err)
			}
			if !owns(g) {
				return fmt.Errorf("shard: run %q holds foreign cell (%d,%d) for shard %d/%d",
					r.Experiment, c.Point, c.System, f.Index, f.Shards)
			}
			if filled[g] {
				return fmt.Errorf("shard: run %q cell (%d,%d) appears twice", r.Experiment, c.Point, c.System)
			}
			filled[g] = true
		}
		for g := range filled {
			if owns(g) && !filled[g] {
				return fmt.Errorf("shard: run %q cell (%d,%d) missing — partial shard",
					r.Experiment, g/r.Grid.Systems, g%r.Grid.Systems)
			}
		}
	}
	return nil
}

// ownership returns the global-index ownership predicate of the file: the
// plan's round-robin share for a regular shard file, or the union of the
// present shards for a file carrying a Partial header. It validates
// through indices(), the single accessor for a file's decomposition.
func (f *File) ownership() (func(g int) bool, error) {
	shards, owned, err := f.indices()
	if err != nil {
		return nil, err
	}
	set := make(map[int]bool, len(owned))
	for _, idx := range owned {
		set[idx] = true
	}
	return func(g int) bool { return set[g%shards] }, nil
}

// canonicalParams compacts a params payload so equality is insensitive to
// whitespace (files may be re-indented by hand or by other tools).
func canonicalParams(raw json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	if len(raw) == 0 {
		return nil, nil
	}
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("shard: params: %w", err)
	}
	return buf.Bytes(), nil
}

// Merge validates that the files form one complete, disjoint cover of a
// single run's cell grids and returns the single-shard equivalent file:
// Shards 1, Index 0, and every run's cells complete and in grid order.
// Aggregating a merged file therefore produces exactly the output of the
// unsharded run.
//
// The files may be given in any order. Merge fails if the files disagree
// on selection, run parameters, grid shapes or shard count; if an index
// is missing or duplicated; if any cell is out of range, duplicated, or
// not owned by its file's shard index.
// mergedHost combines the input files' host fingerprints: empty when
// none records one (every reproducible run), the common value when
// they agree, and the distinct values sorted and joined with "; " when
// shards of a non-reproducible run came from different hosts. Sorting
// keeps the merged value independent of file order, so re-merging a
// merged file is still the identity.
func mergedHost(files []*File) string {
	seen := map[string]bool{}
	var hosts []string
	for _, f := range files {
		if f.Host == "" || seen[f.Host] {
			continue
		}
		seen[f.Host] = true
		hosts = append(hosts, f.Host)
	}
	sort.Strings(hosts)
	return strings.Join(hosts, "; ")
}

func Merge(files []*File) (*File, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("shard: merge needs at least one file")
	}
	ref := files[0]
	refParams, err := canonicalParams(ref.Params)
	if err != nil {
		return nil, err
	}
	if len(files) != ref.Shards {
		return nil, fmt.Errorf("shard: merge got %d files for a %d-shard run", len(files), ref.Shards)
	}
	seen := make([]bool, ref.Shards)
	for _, f := range files {
		// Merge also accepts hand-built Files that never passed Decode;
		// re-validate the decomposition before indexing with it.
		if _, err := NewPlan(f.Shards, f.Index); err != nil {
			return nil, err
		}
		if f.Partial != nil {
			return nil, fmt.Errorf("shard: shard %d is a partial cover file; use MergePartial", f.Index)
		}
		if f.Batch != nil {
			return nil, fmt.Errorf("shard: %s is a cell-batch file; use MergeBatches", f.label())
		}
		if f.Version != ref.Version {
			return nil, fmt.Errorf("shard: mixed format versions %d and %d", ref.Version, f.Version)
		}
		if f.Selection != ref.Selection {
			return nil, fmt.Errorf("shard: mixed selections %q and %q", ref.Selection, f.Selection)
		}
		if f.Shards != ref.Shards {
			return nil, fmt.Errorf("shard: mixed shard counts %d and %d", ref.Shards, f.Shards)
		}
		if seen[f.Index] {
			return nil, fmt.Errorf("shard: shard index %d appears twice", f.Index)
		}
		seen[f.Index] = true
		params, err := canonicalParams(f.Params)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(params, refParams) {
			return nil, fmt.Errorf("shard: %s was produced by a different run than %s (params mismatch: %s)",
				f.label(), ref.label(), DiffParams(ref.Params, f.Params))
		}
		if len(f.Runs) != len(ref.Runs) {
			return nil, fmt.Errorf("shard: %s holds %d runs, %s holds %d",
				f.label(), len(f.Runs), ref.label(), len(ref.Runs))
		}
		for ri, r := range f.Runs {
			if r.Experiment != ref.Runs[ri].Experiment || r.Grid != ref.Runs[ri].Grid {
				return nil, fmt.Errorf("shard: %s run %d is %s %v, want %s %v",
					f.label(), ri, r.Experiment, r.Grid, ref.Runs[ri].Experiment, ref.Runs[ri].Grid)
			}
			if r.PayloadVersion != ref.Runs[ri].PayloadVersion {
				return nil, fmt.Errorf("shard: %s run %q records payload version %d, %s records %d",
					f.label(), r.Experiment, r.PayloadVersion, ref.label(), ref.Runs[ri].PayloadVersion)
			}
		}
	}
	merged := &File{
		Version:   ref.Version,
		Selection: ref.Selection,
		Shards:    1,
		Index:     0,
		Params:    ref.Params,
		Host:      mergedHost(files),
	}
	for ri, refRun := range ref.Runs {
		grid := refRun.Grid
		// Merge also accepts hand-built Files that never passed Decode, so
		// re-validate before sizing allocations from the header.
		if err := grid.validate(); err != nil {
			return nil, fmt.Errorf("shard: run %q: %w", refRun.Experiment, err)
		}
		cells := make([]Cell, grid.Cells())
		filled := make([]bool, grid.Cells())
		for _, f := range files {
			plan := Plan{Shards: f.Shards, Index: f.Index}
			for _, c := range f.Runs[ri].Cells {
				g, err := grid.Index(c.Point, c.System)
				if err != nil {
					return nil, fmt.Errorf("shard: %s shard %d: %w", refRun.Experiment, f.Index, err)
				}
				if !plan.Owns(g) {
					return nil, fmt.Errorf("shard: %s shard %d holds foreign cell (%d,%d)",
						refRun.Experiment, f.Index, c.Point, c.System)
				}
				if filled[g] {
					return nil, fmt.Errorf("shard: %s cell (%d,%d) appears twice",
						refRun.Experiment, c.Point, c.System)
				}
				filled[g] = true
				cells[g] = c
			}
		}
		for g, ok := range filled {
			if !ok {
				return nil, fmt.Errorf("shard: %s cell (%d,%d) missing — incomplete shard set",
					refRun.Experiment, g/grid.Systems, g%grid.Systems)
			}
		}
		merged.Runs = append(merged.Runs, Run{
			Experiment: refRun.Experiment, Grid: grid,
			PayloadVersion: refRun.PayloadVersion, Cells: cells,
		})
	}
	return merged, nil
}
