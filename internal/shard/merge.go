package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// owner is a file's decomposition: the shard count N it was drawn from,
// the shard indices it contributes, and so the cells it must hold.
type owner struct {
	shards int     // N; 1 for a batch file
	idx    []int   // contributed shard indices, strictly ascending
	batch  [][]int // a batch file's per-run cell sets; nil otherwise
}

// owner validates whichever decomposition header f carries — the
// (Shards, Index) plan, a Partial header or a Batch header — and returns
// it. It is the only reader of those headers: Decode, ValidateCells and
// every merge validate through it. A shard count above MaxCells, the cap
// dispatch puts on a run's shards, is rejected before anything is sized
// from it.
func (f *File) owner() (owner, error) {
	var o owner
	switch {
	case f.Batch != nil:
		if err := f.validateBatch(); err != nil {
			return o, err
		}
		o = owner{shards: 1, idx: []int{0}, batch: f.Batch.Cells}
	case f.Partial != nil:
		if f.Shards != 1 || f.Index != 0 {
			return o, fmt.Errorf("shard: partial file declares shard %d/%d, want 0/1", f.Index, f.Shards)
		}
		if err := f.Partial.validate(); err != nil {
			return o, err
		}
		o = owner{shards: f.Partial.Shards, idx: f.Partial.Present}
	default:
		if _, err := NewPlan(f.Shards, f.Index); err != nil {
			return o, err
		}
		o = owner{shards: f.Shards, idx: []int{f.Index}}
	}
	if o.shards > MaxCells {
		return owner{}, fmt.Errorf("shard: %d shards, more than %d", o.shards, MaxCells)
	}
	return o, nil
}

// owns reports whether the file owns global cell index g of run ri. The
// sets it searches were validated ascending by owner.
func (o *owner) owns(ri, g int) bool {
	switch {
	case o.batch != nil:
		_, ok := slices.BinarySearch(o.batch[ri], g)
		return ok
	case len(o.idx) == 1:
		return g%o.shards == o.idx[0]
	}
	_, ok := slices.BinarySearch(o.idx, g%o.shards)
	return ok
}

// count returns how many cells of run ri's n-cell grid the file owns.
func (o *owner) count(ri, n int) int {
	if o.batch != nil {
		return len(o.batch[ri])
	}
	c := 0
	for _, i := range o.idx {
		c += (n - i + o.shards - 1) / o.shards
	}
	return c
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
	o, err := f.owner()
	if err != nil {
		return err
	}
	files, owners := []*File{f}, []owner{o}
	for ri := range f.Runs {
		if _, _, err := gather(files, owners, ri, rules{partial: true}, byShard, false); err != nil {
			return err
		}
	}
	return nil
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
// not owned by its file's shard index; and for partial cover or
// cell-batch inputs, which MergePartial and MergeBatches take. Errors
// name a file by its path, or by its shard index when it has none.
func Merge(files []*File) (*File, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("shard: merge needs at least one file")
	}
	if len(files) != files[0].Shards {
		return nil, fmt.Errorf("shard: merge got %d files for a %d-shard run", len(files), files[0].Shards)
	}
	cover, _, err := merge(files, rules{}, byShard)
	if err != nil {
		return nil, err
	}
	return cover.File, nil
}

// MergeBatches validates that the batch files cover every cell of a
// single run's grids and returns the single-shard equivalent file —
// byte-identical to Merge's output for the same run — plus the number of
// duplicate cells discarded. Unlike Merge, the inputs may overlap:
// work-stealing legitimately produces the same cell from two workers, so
// cells are merged first-completion-wins in the files' given order and
// later copies are discarded by cell key, not rejected. Everything else
// is strict: every file must be a self-consistent batch file of the same
// run (selection, params, grids, payload versions), every file must hold
// exactly the cells its header declares, and the union must be complete.
// Errors name a file by its path, or by its argument position.
func MergeBatches(files []*File) (*File, int, error) {
	if len(files) == 0 {
		return nil, 0, fmt.Errorf("shard: batch merge needs at least one file")
	}
	cover, dups, err := merge(files, rules{overlap: true}, byPosition)
	if err != nil {
		return nil, 0, err
	}
	return cover.File, dups, nil
}

// MergePartial validates that the files are mutually-consistent pieces of
// a single run — any mix of regular shard files and partial files a
// previous MergePartial wrote — and merges whatever subset of the cover
// they form. Unlike Merge it does not require completeness; everything
// else is held to the same standard: the files must agree on selection,
// params, grid shapes and shard count, contributed shard indices must be
// disjoint, and each file must carry exactly the cells its indices own
// (a truncated shard file is rejected, not silently under-counted).
// Errors name a file by its path, or by its argument position.
//
// The returned cover's File is the provisional single-shard equivalent:
// cells in grid order, Partial header recording the decomposition and
// present shards when — and only when — the cover is incomplete. Merging
// the complete set therefore returns a File byte-identical to Merge's,
// which is what keeps streamed/partial rendering an approximation that
// converges to, never diverges from, the full run's output.
func MergePartial(files []*File) (*PartialCover, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("shard: partial merge needs at least one file")
	}
	cover, _, err := merge(files, rules{partial: true}, byPosition)
	return cover, err
}

// rules are the two ways a merge may relax the strict cover.
type rules struct {
	// partial: the cover may be incomplete (MergePartial).
	partial bool
	// overlap: the inputs are batch files and may share cells; the first
	// copy wins and later ones are counted (MergeBatches).
	overlap bool
}

// merge is the one merge behind Merge, MergeBatches and MergePartial: it
// checks that files are consistent pieces of one run, each holding
// exactly the cells it owns, and returns their cover — every run's cells
// in grid order — and the number of duplicate cells discarded. label
// names an input in error messages.
func merge(files []*File, r rules, label func(*File, int) string) (*PartialCover, int, error) {
	ref := files[0]
	refParams, err := canonicalParams(ref.Params)
	if err != nil {
		return nil, 0, err
	}
	owners := make([]owner, len(files))
	var present []bool
	for fi, f := range files {
		switch {
		case f.Batch != nil && !r.overlap:
			return nil, 0, fmt.Errorf("shard: %s is a cell-batch file; use MergeBatches", label(f, fi))
		case f.Batch == nil && r.overlap:
			return nil, 0, fmt.Errorf("shard: %s is not a cell-batch file; use Merge or MergePartial", label(f, fi))
		case f.Partial != nil && !r.partial:
			return nil, 0, fmt.Errorf("shard: %s is a partial cover file; use MergePartial", label(f, fi))
		}
		o, err := f.owner()
		if err != nil {
			return nil, 0, err
		}
		if err := sameRun(files, fi, refParams, label); err != nil {
			return nil, 0, err
		}
		if fi == 0 {
			present = make([]bool, o.shards)
		} else if o.shards != owners[0].shards {
			return nil, 0, fmt.Errorf("shard: mixed shard counts %d and %d", owners[0].shards, o.shards)
		}
		for _, i := range o.idx {
			if present[i] && !r.overlap {
				return nil, 0, fmt.Errorf("shard: shard index %d appears twice", i)
			}
			present[i] = true
		}
		owners[fi] = o
	}
	cover := &PartialCover{Shards: owners[0].shards, File: &File{
		Version:   ref.Version,
		Selection: ref.Selection,
		Shards:    1,
		Index:     0,
		Params:    refParams,
		Host:      mergedHost(files),
	}}
	for i, ok := range present {
		if ok {
			cover.Present = append(cover.Present, i)
		} else {
			cover.Missing = append(cover.Missing, i)
		}
	}
	if len(cover.Missing) > 0 {
		cover.File.Partial = &PartialInfo{Shards: cover.Shards, Present: cover.Present}
	}
	dups := 0
	for ri, run := range ref.Runs {
		cells, d, err := gather(files, owners, ri, r, label, true)
		if err != nil {
			return nil, 0, err
		}
		dups += d
		cover.File.Runs = append(cover.File.Runs, Run{
			Experiment: run.Experiment, Grid: run.Grid,
			PayloadVersion: run.PayloadVersion, Cells: cells,
		})
		cover.Runs = append(cover.Runs, RunCoverage{Experiment: run.Experiment, Grid: run.Grid, Have: len(cells)})
	}
	return cover, dups, nil
}

// sameRun checks input fi's header against the reference input's
// (files[0]): format version, selection, compacted params, run list,
// grids and payload versions.
func sameRun(files []*File, fi int, refParams []byte, label func(*File, int) string) error {
	ref, f := files[0], files[fi]
	if f.Version != ref.Version {
		return fmt.Errorf("shard: mixed format versions %d and %d", ref.Version, f.Version)
	}
	if f.Selection != ref.Selection {
		return fmt.Errorf("shard: mixed selections %q and %q", ref.Selection, f.Selection)
	}
	params, err := canonicalParams(f.Params)
	if err != nil {
		return err
	}
	if !bytes.Equal(params, refParams) {
		return fmt.Errorf("shard: %s was produced by a different run than %s (params mismatch: %s)",
			label(f, fi), label(ref, 0), DiffParams(ref.Params, f.Params))
	}
	if len(f.Runs) != len(ref.Runs) {
		return fmt.Errorf("shard: %s holds %d runs, %s holds %d",
			label(f, fi), len(f.Runs), label(ref, 0), len(ref.Runs))
	}
	for ri, run := range f.Runs {
		want := ref.Runs[ri]
		if run.Experiment != want.Experiment || run.Grid != want.Grid {
			return fmt.Errorf("shard: %s run %d is %s %v, want %s %v",
				label(f, fi), ri, run.Experiment, run.Grid, want.Experiment, want.Grid)
		}
		if run.PayloadVersion != want.PayloadVersion {
			return fmt.Errorf("shard: %s run %q records payload version %d, %s records %d",
				label(f, fi), run.Experiment, run.PayloadVersion, label(ref, 0), want.PayloadVersion)
		}
	}
	return nil
}

// gather places run ri's cells of every input at their grid index, the
// inputs in order. Each input must hold exactly the cells it owns: each
// on the grid, owned, held once, none missing. A cell an earlier input
// holds is a duplicate, counted and dropped, so the first copy wins; and
// unless r.partial the inputs together cover the grid. With keep, gather
// returns the held cells in grid order; without, it checks each input
// alone and sizes nothing by the grid.
func gather(files []*File, owners []owner, ri int, r rules, label func(*File, int) string, keep bool) ([]Cell, int, error) {
	run := files[0].Runs[ri]
	grid, n := run.Grid, run.Grid.Cells()
	// Inputs need not have passed Decode: validate before the grid sizes
	// anything.
	if err := grid.Validate(); err != nil {
		return nil, 0, fmt.Errorf("shard: run %q: %w", run.Experiment, err)
	}
	var filled []bool
	var dense []Cell
	if keep {
		filled, dense = make([]bool, n), make([]Cell, n)
	}
	idx := make([]int, 0, len(files[0].Runs[ri].Cells)) // one input's cell indices, ascending
	have, dups := 0, 0
	for fi, f := range files {
		o, cells := &owners[fi], f.Runs[ri].Cells
		idx = idx[:0]
		for _, c := range cells {
			g, err := grid.Index(c.Point, c.System)
			if err != nil {
				return nil, 0, fmt.Errorf("shard: %s %s: %w", run.Experiment, label(f, fi), err)
			}
			if !o.owns(ri, g) {
				return nil, 0, fmt.Errorf("shard: %s %s holds foreign cell (%d,%d)",
					run.Experiment, label(f, fi), c.Point, c.System)
			}
			idx = append(idx, g)
		}
		slices.Sort(idx)
		for i := 1; i < len(idx); i++ {
			if g := idx[i]; g == idx[i-1] {
				return nil, 0, fmt.Errorf("shard: %s cell (%d,%d) appears twice", run.Experiment, g/grid.Systems, g%grid.Systems)
			}
		}
		if len(idx) != o.count(ri, n) {
			for g := range n {
				if _, ok := slices.BinarySearch(idx, g); !ok && o.owns(ri, g) {
					return nil, 0, fmt.Errorf("shard: %s %s is missing cell (%d,%d) — truncated file",
						run.Experiment, label(f, fi), g/grid.Systems, g%grid.Systems)
				}
			}
		}
		if !keep {
			continue
		}
		for _, c := range cells {
			// Only overlapping inputs share a cell: the shard indices of
			// the others were checked disjoint, and so are their cells.
			if g := c.Point*grid.Systems + c.System; filled[g] {
				dups++
			} else {
				filled[g], dense[g] = true, c
				have++
			}
		}
	}
	if keep && have < n {
		if !r.partial {
			g := slices.Index(filled, false)
			return nil, 0, fmt.Errorf("shard: %s cell (%d,%d) missing — incomplete cover",
				run.Experiment, g/grid.Systems, g%grid.Systems)
		}
		kept := dense[:0]
		for g, ok := range filled {
			if ok {
				kept = append(kept, dense[g])
			}
		}
		dense = kept
	}
	return dense, dups, nil
}

// byShard names a merge input by its path when known, its shard index
// otherwise.
func byShard(f *File, _ int) string {
	if f.Path != "" {
		return f.Path
	}
	return fmt.Sprintf("shard %d", f.Index)
}

// byPosition names a merge input by its path when known, its argument
// position otherwise: the inputs of MergePartial and MergeBatches carry
// no unique shard index.
func byPosition(f *File, fi int) string {
	if f.Path != "" {
		return f.Path
	}
	return fmt.Sprintf("file %d", fi)
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

// mergedHost combines the input files' host fingerprints: empty when
// none records one (every reproducible run), the common value when
// they agree, and the distinct values sorted and joined with "; " when
// shards of a non-reproducible run came from different hosts. Sorting
// keeps the merged value independent of file order, so re-merging a
// merged file is still the identity.
func mergedHost(files []*File) string {
	var hosts []string
	for _, f := range files {
		if f.Host != "" {
			hosts = append(hosts, f.Host)
		}
	}
	slices.Sort(hosts)
	return strings.Join(slices.Compact(hosts), "; ")
}
