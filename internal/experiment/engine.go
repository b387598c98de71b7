package experiment

// The generic experiment engines: one implementation of run / shard /
// aggregate / partial-aggregate that drives any registered Experiment.
// The determinism invariants hold by construction: every cell draws
// randomness only from its grid path (the experiment's CellSeed/Cell
// hooks), payloads round-trip losslessly through the experiment's codec,
// and FromCells/FromCellsPartial re-enter the exact Aggregate hook the
// in-process Run uses — partial output is the full run's aggregation
// restricted to the present cells.

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/cellcache"
	"repro/internal/exec"
	"repro/internal/shard"
)

// get resolves a registered experiment, reporting ErrUnknownExperiment
// for names the registry does not hold.
func get(name string) (Experiment, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiment: %w %q", ErrUnknownExperiment, name)
	}
	return e, nil
}

// Run runs the named experiment in process: it evaluates the full cell
// grid and aggregates it — the same two phases a sharded run splits
// across processes, so in-process, sharded and partial results agree by
// construction, not by parallel maintenance of separate code paths.
func Run(name string, rc RunContext) (Result, error) {
	e, err := get(name)
	if err != nil {
		return nil, err
	}
	var cells []shard.Cell
	if e.Codec().New != nil {
		// A closed-form model has no grid: FromCells aggregates it from
		// no cells.
		if cells, _, err = RunCells(name, rc, nil); err != nil {
			return nil, err
		}
	}
	return FromCells(name, rc, cells)
}

// RunCells evaluates the selected cells of the named experiment's grid
// (nil selects all) and returns them as shard cells with their derived
// seeds recorded, through the context's cache when it has one.
func RunCells(name string, rc RunContext, sel CellSelector) ([]shard.Cell, shard.Grid, error) {
	e, err := get(name)
	if err != nil {
		return nil, shard.Grid{}, err
	}
	g, err := gridOf(e, rc)
	if err != nil {
		return nil, g, err
	}
	var idx []int
	for gi := range g.Cells() {
		if sel == nil || sel(gi/g.Systems, gi%g.Systems) {
			idx = append(idx, gi)
		}
	}
	cells, _, err := unitCells(e, rc, g, idx, NewCacheProbe(rc.Cache), true)
	return cells, g, err
}

// gridOf resolves e's cell grid under rc: the one place a grid is
// derived from params. It refuses a closed-form model, which has no
// grid, and any grid over shard.MaxGridCells — params a remote client
// chooses must not size an allocation that no shard file could record.
func gridOf(e Experiment, rc RunContext) (shard.Grid, error) {
	if e.Codec().New == nil {
		return shard.Grid{}, fmt.Errorf("experiment: %q is a closed-form model with no cell grid", e.Name())
	}
	g, err := e.Grid(rc)
	if err == nil {
		err = g.Validate()
	}
	if err != nil {
		return shard.Grid{}, err
	}
	return g, nil
}

// unitCells returns the cells at the ascending global indices idx of e's
// grid g, in that order: the one loop under every run, shard, batch and
// cache probe. A cell the probe's view of e's key holds under its
// derived seed is served from it (a nil probe, or a non-reproducible
// experiment, serves nothing); every other cell is a miss. Without
// compute, the first miss ends the walk with ok false: the unit is not
// fully cached. With compute, the misses are evaluated over rc's workers
// and deposited back to the probe's store as one pack. The cells are the
// same either way: each derives its randomness from a sub-seed over its
// (runner, point, system) path, so it evaluates to the same value in any
// subset, process or parallelism.
func unitCells(e Experiment, rc RunContext, g shard.Grid, idx []int, cp *CacheProbe, compute bool) ([]shard.Cell, bool, error) {
	// A non-reproducible experiment's payloads measure the host, so the
	// cache — whose contract is "a hit's bytes equal a recomputation's"
	// — can neither serve nor store them: it is bypassed, never poisoned.
	if !Reproducible(e) {
		cp = nil
	}
	var (
		key  cellcache.Key
		view *cellcache.View
		err  error
	)
	if cp != nil {
		if key, err = cacheKey(e, rc); err != nil {
			return nil, false, err
		}
		view = cp.view(key)
	}
	codec := payloadCodec(e)
	// Non-nil even when the unit owns no cell of this grid, so the
	// encoded file reads "[]", never "null".
	cells := make([]shard.Cell, 0, len(idx))
	var frontier []int // indices into cells the cache does not cover
	for _, gi := range idx {
		o, i := gi/g.Systems, gi%g.Systems
		seed := e.CellSeed(rc, o, i)
		c, ok := cachedCell(view, codec, o, i, seed)
		if !ok {
			if !compute {
				return nil, false, nil
			}
			c = shard.Cell{Point: o, System: i, Seed: seed}
			frontier = append(frontier, len(cells))
		}
		cells = append(cells, c)
	}
	vals, err := exec.Map(exec.New(rc.Config.Parallelism), context.Background(), len(frontier),
		func(_ context.Context, m int) (any, error) {
			c := cells[frontier[m]]
			return e.Cell(rc, c.Point, c.System)
		})
	if err != nil {
		return nil, false, err
	}
	var deposit []cellcache.Entry
	for m, k := range frontier {
		c := &cells[k]
		if c.Data, err = cellData(e, vals[m]); err != nil {
			return nil, false, fmt.Errorf("experiment: encode cell (%d,%d): %w", c.Point, c.System, err)
		}
		if cp == nil {
			continue
		}
		if ent, err := packEntry(codec, *c); err == nil {
			deposit = append(deposit, ent)
		}
	}
	if cp != nil {
		// Deposits are best-effort: a full or read-only cache directory
		// must not fail the run it merely accelerates.
		_ = cp.cache.Put(key, deposit)
	}
	return cells, true, nil
}

// cellData turns a computed payload into the value a cell carries: a
// pointer to it under a typed payload codec (what the codec packs and
// Aggregate reads), its JSON under the generic codec.
func cellData(e Experiment, v any) (any, error) {
	if e.Codec().Payload == nil {
		b, err := json.Marshal(v)
		return json.RawMessage(b), err
	}
	if rv := reflect.ValueOf(v); rv.Kind() != reflect.Pointer {
		p := reflect.New(rv.Type())
		p.Elem().Set(rv)
		return p.Interface(), nil
	}
	return v, nil
}

// cachedCell serves cell (o, i) from a loaded cache view (nil = none): a
// hit only when the view holds the cell under the seed and its record
// unpacks exactly through codec.
func cachedCell(view *cellcache.View, codec shard.PayloadCodec, o, i int, seed int64) (shard.Cell, bool) {
	if view == nil {
		return shard.Cell{}, false
	}
	rec, ok := view.Get(o, i, seed)
	if !ok {
		return shard.Cell{}, false
	}
	cell := []shard.Cell{{Point: o, System: i, Seed: seed}}
	r := shard.NewColumnReader(rec)
	if codec.Unpack(r, cell) != nil || r.Remaining() != 0 {
		return shard.Cell{}, false
	}
	return cell[0], true
}

// payloadCodec returns the shard codec e's cells travel under.
func payloadCodec(e Experiment) shard.PayloadCodec {
	return shard.PayloadCodecFor(e.Name(), e.Codec().Version)
}

// cacheKey derives the context's cache namespace for e: the experiment's
// cell-grid identity (CellKey — Figures 6 and 7 share entries exactly as
// they share one computation), the canonical JSON of the normalised
// params, and the payload layout version (bumping the codec orphans the
// old entries).
func cacheKey(e Experiment, rc RunContext) (cellcache.Key, error) {
	params, err := json.Marshal(rc.Params)
	if err != nil {
		return cellcache.Key{}, fmt.Errorf("experiment: encode params: %w", err)
	}
	return cellcache.RunKey(e.CellKey(), params, e.Codec().Version), nil
}

// FromCells rebuilds the named experiment's result from a complete
// (merged) cell set: FromCellsPartial's result, once the set covers the
// whole grid. Incomplete, duplicated, out-of-range or undecodable cells
// are rejected.
func FromCells(name string, rc RunContext, cells []shard.Cell) (Result, error) {
	res, cov, err := FromCellsPartial(name, rc, cells)
	if err == nil && !cov.Complete() {
		return nil, fmt.Errorf("%s: experiment: %d cells for a %dx%d grid", name, len(cells), len(cov.PointHave), cov.Inner)
	}
	return res, err
}

// FromCellsPartial rebuilds a provisional result from any subset of the
// named experiment's grid cells, alongside an exact Coverage report: the
// full run's aggregation restricted to the present cells. A complete
// subset aggregates with no presence predicate, exactly as the in-process
// run does; a nil result (with nil error) means the experiment has no
// provisional result for the subset.
func FromCellsPartial(name string, rc RunContext, cells []shard.Cell) (Result, Coverage, error) {
	e, err := get(name)
	if err != nil {
		return nil, Coverage{}, err
	}
	if e.Codec().New == nil {
		// Closed-form experiments render in full from any cover.
		res, err := e.Aggregate(rc, nil, nil)
		return res, Coverage{}, err
	}
	g, err := gridOf(e, rc)
	if err != nil {
		return nil, Coverage{}, err
	}
	at, has, cov, err := decodeCells(e, g, cells)
	if err != nil {
		return nil, Coverage{}, fmt.Errorf("%s: %w", e.Name(), err)
	}
	if cov.Complete() {
		has = nil
	}
	res, err := e.Aggregate(rc, at, has)
	if err != nil {
		return nil, Coverage{}, err
	}
	return res, cov, nil
}

// decodeCells gathers an arbitrary subset of a grid's typed cell payloads
// into a sparse payload grid with a presence map and
// its coverage. Duplicated, out-of-range and undecodable cells are
// rejected — a partial result must be an honest subset of the full run,
// never a guess.
func decodeCells(e Experiment, g shard.Grid, cells []shard.Cell) (at func(o, i int) any, has func(o, i int) bool, cov Coverage, err error) {
	codec := e.Codec()
	want := reflect.TypeOf(codec.New())
	cov = Coverage{Total: g.Cells(), PointHave: make([]int, g.Points), Inner: g.Systems}
	if len(cells) > g.Cells() {
		return nil, nil, Coverage{}, fmt.Errorf("experiment: %d cells for a %dx%d grid", len(cells), g.Points, g.Systems)
	}
	payloads := make([]any, g.Cells())
	present := make([]bool, g.Cells())
	for _, c := range cells {
		idx, err := g.Index(c.Point, c.System)
		if err != nil {
			return nil, nil, Coverage{}, fmt.Errorf("experiment: %w", err)
		}
		if present[idx] {
			return nil, nil, Coverage{}, fmt.Errorf("experiment: cell (%d,%d) appears twice", c.Point, c.System)
		}
		present[idx] = true
		cov.Have++
		cov.PointHave[c.Point]++
		p := c.Data
		if raw, ok := p.(json.RawMessage); ok {
			// The generic JSON codec's value (an experiment without a typed
			// codec, or cells built by hand).
			p = codec.New()
			if err := json.Unmarshal(raw, p); err != nil {
				return nil, nil, Coverage{}, fmt.Errorf("experiment: decode cell (%d,%d): %w", c.Point, c.System, err)
			}
		} else if reflect.TypeOf(p) != want {
			return nil, nil, Coverage{}, fmt.Errorf("experiment: cell (%d,%d) payload is %T, want %v", c.Point, c.System, p, want)
		}
		payloads[idx] = p
	}
	at = func(o, i int) any { return payloads[o*g.Systems+i] }
	has = func(o, i int) bool { return present[o*g.Systems+i] }
	return at, has, cov, nil
}

// ValidateRuns checks a shard file's run headers against the registry:
// every run must name a registered experiment, carry the grid the
// recorded params produce, and a payload version the experiment's codec
// reads (0 — written before versions were recorded — is accepted).
// Dispatch drivers call it before accepting a worker's output, so a
// worker built against a different payload layout is retried, not
// merged.
func ValidateRuns(f *shard.File, p ShardParams) error {
	rc := p.Context(1)
	for _, r := range f.Runs {
		e, ok := Lookup(r.Experiment)
		if !ok {
			return fmt.Errorf("experiment: %w %q in shard file", ErrUnknownExperiment, r.Experiment)
		}
		g, err := gridOf(e, rc)
		if err != nil {
			return err
		}
		if r.Grid != g {
			return fmt.Errorf("experiment: run %q records grid %dx%d, the params produce %dx%d",
				r.Experiment, r.Grid.Points, r.Grid.Systems, g.Points, g.Systems)
		}
		if v := e.Codec().Version; r.PayloadVersion != 0 && r.PayloadVersion != v {
			return fmt.Errorf("experiment: run %q records payload version %d, this build reads %d",
				r.Experiment, r.PayloadVersion, v)
		}
	}
	return nil
}
