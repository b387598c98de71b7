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
	if e.Codec().New == nil {
		// Closed-form: no grid, nothing to fan out.
		return e.Aggregate(rc, nil, nil)
	}
	cells, _, err := runCells(e, rc, nil)
	if err != nil {
		return nil, err
	}
	return fromCells(e, rc, cells)
}

// RunCells evaluates the selected cells of the named experiment's grid
// (nil selects all) and returns them as shard cells with their derived
// seeds recorded — the engine under the shard workflow.
func RunCells(name string, rc RunContext, sel CellSelector) ([]shard.Cell, shard.Grid, error) {
	e, err := get(name)
	if err != nil {
		return nil, shard.Grid{}, err
	}
	return runCells(e, rc, sel)
}

// runCells evaluates the selected cells in grid order. Cells the
// context's cache holds under this run's seeds are reused; only the rest
// is computed, fanned over rc's workers, and deposited back as packed
// records. The cells are the same either way: each derives its randomness
// from a sub-seed over its (runner, point, system) path, so it evaluates
// to the same value in any subset, process or parallelism.
func runCells(e Experiment, rc RunContext, sel CellSelector) ([]shard.Cell, shard.Grid, error) {
	g, err := e.Grid(rc)
	if err != nil {
		return nil, g, err
	}
	if e.Codec().New == nil {
		return nil, g, fmt.Errorf("experiment: %q is a closed-form model with no cell grid", e.Name())
	}
	// A non-reproducible experiment's payloads measure the host, so the
	// cache — whose contract is "a hit's bytes equal a recomputation's"
	// — can neither serve nor store them: the cache is bypassed, never
	// poisoned.
	cache, codec := rc.Cache, payloadCodec(e)
	var key cellcache.Key
	if !Reproducible(e) {
		cache = nil
	} else if cache != nil {
		if key, err = cacheKey(e, rc); err != nil {
			return nil, g, err
		}
	}
	cells := []shard.Cell{}
	var frontier []int // indices into cells the cache does not cover
	for o := 0; o < g.Points; o++ {
		for i := 0; i < g.Systems; i++ {
			if sel != nil && !sel(o, i) {
				continue
			}
			seed := e.CellSeed(rc, o, i)
			c, ok := cachedCell(cache, codec, key, o, i, seed)
			if !ok {
				c = shard.Cell{Point: o, System: i, Seed: seed}
				frontier = append(frontier, len(cells))
			}
			cells = append(cells, c)
		}
	}
	vals, err := exec.Map(exec.New(rc.Config.Parallelism), context.Background(), len(frontier),
		func(_ context.Context, m int) (any, error) {
			c := cells[frontier[m]]
			return e.Cell(rc, c.Point, c.System)
		})
	if err != nil {
		return nil, g, err
	}
	for m, k := range frontier {
		c := &cells[k]
		if c.Data, err = cellData(e, vals[m]); err != nil {
			return nil, g, fmt.Errorf("experiment: encode cell (%d,%d): %w", c.Point, c.System, err)
		}
		// Deposits are best-effort: a full or read-only cache directory
		// must not fail the run it merely accelerates.
		w := &shard.ColumnWriter{}
		if cache != nil && codec.Pack(w, c.Data) == nil {
			_ = cache.Put(key, c.Point, c.System, c.Seed, w.Bytes())
		}
	}
	return cells, g, nil
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

// cachedCell serves cell (o, i) from the cache (nil = none): a hit only
// when the entry verifies under the seed and its record unpacks exactly
// through codec.
func cachedCell(cache *cellcache.Store, codec shard.PayloadCodec, key cellcache.Key, o, i int, seed int64) (shard.Cell, bool) {
	if cache == nil {
		return shard.Cell{}, false
	}
	rec, ok := cache.Get(key, o, i, seed)
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
// (merged) cell set, via the exact Aggregate hook the in-process run
// uses. Incomplete, duplicated, out-of-range or undecodable cells are
// rejected.
func FromCells(name string, rc RunContext, cells []shard.Cell) (Result, error) {
	e, err := get(name)
	if err != nil {
		return nil, err
	}
	return fromCells(e, rc, cells)
}

func fromCells(e Experiment, rc RunContext, cells []shard.Cell) (Result, error) {
	if e.Codec().New == nil {
		return e.Aggregate(rc, nil, nil)
	}
	g, err := e.Grid(rc)
	if err != nil {
		return nil, err
	}
	at, _, cov, err := decodeCells(e, g, cells)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name(), err)
	}
	if !cov.Complete() {
		return nil, fmt.Errorf("%s: experiment: %d cells for a %dx%d grid", e.Name(), len(cells), g.Points, g.Systems)
	}
	return e.Aggregate(rc, at, nil)
}

// FromCellsPartial rebuilds a provisional result from any subset of the
// named experiment's grid cells, alongside an exact Coverage report: the
// full run's aggregation restricted to the present cells. A complete
// subset returns the same result as FromCells; a nil result (with nil
// error) means the experiment has no provisional result for the subset.
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
	g, err := e.Grid(rc)
	if err != nil {
		return nil, Coverage{}, err
	}
	at, has, cov, err := decodeCells(e, g, cells)
	if err != nil {
		return nil, Coverage{}, fmt.Errorf("%s: %w", e.Name(), err)
	}
	res, err := e.Aggregate(rc, at, has)
	if err != nil {
		return nil, Coverage{}, err
	}
	return res, cov, nil
}

// CellCoverage reports how much of the named experiment's grid a cell
// subset covers, validating positions without decoding payloads.
func CellCoverage(name string, rc RunContext, cells []shard.Cell) (Coverage, error) {
	e, err := get(name)
	if err != nil {
		return Coverage{}, err
	}
	g, err := e.Grid(rc)
	if err != nil {
		return Coverage{}, err
	}
	cov := Coverage{Total: g.Cells(), PointHave: make([]int, g.Points), Inner: g.Systems}
	present := make([]bool, g.Cells())
	for _, c := range cells {
		idx, err := g.Index(c.Point, c.System)
		if err != nil {
			return Coverage{}, fmt.Errorf("%s: experiment: %w", name, err)
		}
		if present[idx] {
			return Coverage{}, fmt.Errorf("%s: experiment: cell (%d,%d) appears twice", name, c.Point, c.System)
		}
		present[idx] = true
		cov.Have++
		cov.PointHave[c.Point]++
	}
	return cov, nil
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
		g, err := e.Grid(rc)
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
