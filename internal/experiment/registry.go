package experiment

// The experiment registry: every study — the paper's five figure/table
// runners and any new experiment — is one Experiment value registered
// under its CLI/shard-file name. The generic engines (engine.go) drive
// any registered experiment through the same phases the hard-coded
// runners used to special-case: evaluate grid cells (with grid-path
// derived seeds), serialise them through the versioned payload codec,
// and aggregate in fixed grid order. Shard selection, dispatch
// validation, the CLI and the facade all resolve experiments through
// Lookup/All, so registering a new experiment is the only step needed to
// make it runnable, shardable, dispatchable and renderable.

import (
	"fmt"
	"sync"

	"repro/internal/cellcache"
	"repro/internal/shard"
)

// RunContext carries the resolved configuration the experiment hooks
// see. ShardParams.Context builds it from normalised params.
//
// Config and Motivation are authoritative for what they cover (systems,
// seed, GA budget, parallelism; the motivation mesh); Params carries the
// experiment-specific extras (ablation utilisation, multi-device axis)
// through its Resolved* helpers.
type RunContext struct {
	Params     ShardParams
	Config     Config
	Motivation MotivationConfig
	// Cache, when non-nil, is consulted before any cell is computed and
	// receives every cell computed (engine.go's unitCells). The
	// cache key is built from Params, so it is sound only while Config
	// and Motivation are what Params resolves to. Context never sets it;
	// callers opt in explicitly.
	Cache *cellcache.Store
}

// WithCache returns the context with the cell cache attached (see
// Cache).
func (rc RunContext) WithCache(c *cellcache.Store) RunContext {
	rc.Cache = c
	return rc
}

// Context resolves the params into the RunContext the generic engines
// pass to the experiment hooks. Parallelism is host-local and never
// changes results; <= 0 selects one worker per CPU.
func (p ShardParams) Context(parallelism int) RunContext {
	p = p.Normalised()
	cfg := p.Config()
	cfg.Parallelism = parallelism
	mcfg := p.Motivation()
	mcfg.Parallelism = parallelism
	return RunContext{Params: p, Config: cfg, Motivation: mcfg}
}

// Codec is an experiment's versioned cell-payload codec. Version
// identifies the payload layout and is recorded in shard files
// (shard.Run.PayloadVersion) so a reader rejects cells written by an
// incompatible layout instead of silently mis-decoding them. Bump
// Version whenever the payload struct or its Payload codec changes
// incompatibly.
//
// A zero Codec (nil New) marks a closed-form experiment with no cell
// grid: Table I is recomputed at render time and never sharded.
type Codec struct {
	Version int
	// New returns a pointer to a zero payload: the type cells carry.
	New func() any
	// Payload, when non-nil, is the experiment's typed payload codec
	// (shard.NewCodec over New's type): Register wires it into the shard
	// layer under (Name, Version), cells then carry the typed value end to
	// end, and binary files and cache entries pack it. An experiment
	// without one still shards, caches and dispatches — its cells carry
	// the payload's JSON under the generic JSON codec.
	Payload PayloadCodec
}

// PayloadCodec is the experiment-side spelling of shard.PayloadCodec
// (see payloadcodec.go for the built-in experiments' codecs).
type PayloadCodec = shard.PayloadCodec

// Result is one experiment's aggregated dataset. Rows is the only
// required render hook; results may additionally implement Plottable
// (text chart) and Footnoted (trailing note lines).
type Result interface {
	// Rows renders the result as a text table.
	Rows() (headers []string, rows [][]string)
}

// Plottable is implemented by results that render a text chart above
// their table.
type Plottable interface {
	// PlotTitle is the chart caption.
	PlotTitle() string
	// Series converts the result to plot series.
	Series() (xlabels []string, series []Curveable)
}

// Footnoted is implemented by results with note lines after the table
// (the motivation experiment's base-latency line).
type Footnoted interface {
	// Footer returns the note block without a trailing newline; "" means
	// none.
	Footer() string
}

// Experiment is one registered study: a named cell grid, the per-cell
// computation with its derived-seed path, the versioned payload codec,
// and the fixed-order aggregation with its render hooks. Implementations
// must keep the determinism invariants: Cell's randomness derives only
// from the cell's grid path (CellSeed records it), and Aggregate folds
// cells in grid order with fixed-order float sums, so sharded, partial
// and in-process runs agree byte for byte.
type Experiment interface {
	// Name is the CLI and shard-file spelling of the experiment.
	Name() string
	// Describe returns a one-line description for listings.
	Describe() string
	// CellKey identifies the experiment's cell grid. Experiments sharing
	// a key (fig6/fig7) share one cell computation, recorded under each
	// name exactly as an unsharded run renders one computation twice.
	CellKey() string
	// CSVName is the CSV file the CLI writes for the result ("" = none).
	CSVName() string
	// Grid returns the run's cell grid under rc, validating the
	// configuration the experiment cannot model.
	Grid(rc RunContext) (shard.Grid, error)
	// Codec returns the versioned cell-payload codec; a zero Codec marks
	// a closed-form experiment with nothing to shard.
	Codec() Codec
	// Cell evaluates one grid cell, returning its payload (a value or a
	// pointer of Codec().New's type); it must round-trip losslessly
	// through the codec.
	Cell(rc RunContext, point, system int) (any, error)
	// CellSeed returns the derived sub-seed recorded with the cell (0 if
	// the cell draws no randomness).
	CellSeed(rc RunContext, point, system int) int64
	// Header renders the block the CLI prints above the result.
	Header(rc RunContext) string
	// Aggregate folds decoded cell payloads into the result in grid
	// order. at(point, system) returns the cell's payload as a pointer of
	// Codec().New's type; has restricts aggregation to the present cells (nil = the
	// complete grid). A nil Result with a nil error means no provisional
	// result exists for the subset (the motivation two-design
	// comparison).
	Aggregate(rc RunContext, at func(point, system int) any, has func(point, system int) bool) (Result, error)
}

// ParamDefaulter is implemented by experiments that own defaultable
// ShardParams fields: DefaultParams resolves the zero-valued fields to
// their effective defaults. ShardParams.Normalised applies every
// registered defaulter, so recorded params are byte-equal across
// spellings without the params layer hard-coding any experiment.
type ParamDefaulter interface {
	DefaultParams(p ShardParams) ShardParams
}

// NonReproducible is implemented by experiments whose cell payloads are
// measurements of the host rather than functions of the seed (the
// replay jitter experiment). Reproducible() must return false — the
// interface's presence alone is not the marker, so an implementation
// can keep the method and flip the value under test doubles.
//
// A non-reproducible experiment is exempt from the byte-identical
// invariant and is treated specially everywhere the invariant is load-
// bearing: it is excluded from the "all" selection, its cells are never
// deposited to or served from the cell cache, and shard files holding
// its runs carry a host fingerprint (shard.File.Host). Everything else
// — sharding, merge, partial render, dispatch transport — works
// unchanged, because none of it assumes two computations of the same
// cell agree.
type NonReproducible interface {
	Reproducible() bool
}

// Reproducible reports whether the experiment keeps the byte-identical
// invariant. Experiments are reproducible unless they declare
// otherwise.
func Reproducible(e Experiment) bool {
	if nr, ok := e.(NonReproducible); ok {
		return nr.Reproducible()
	}
	return true
}

// PartialSkipper is implemented by experiments whose provisional result
// does not exist until their grid is complete: PartialSkipNote explains
// the gap in place of the result (missingShards is the pre-rendered
// " 2 5"-style shard list).
type PartialSkipper interface {
	PartialSkipNote(cov Coverage, missingShards string) string
}

var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
	regOrder []string
)

// Register adds e to the registry. The registration order is the
// canonical order: shard files, the CLI's "all" selection and listings
// all follow it. Registering a duplicate name panics — a wiring bug, not
// a runtime condition.
func Register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	name := e.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("experiment: %q registered twice", name))
	}
	registry[name] = e
	regOrder = append(regOrder, name)
	// The payload codec registers alongside the experiment, so binary
	// shard files can pack (and unpack) the experiment's payload column
	// the moment the experiment exists — no second registration step.
	if c := e.Codec(); c.Payload != nil {
		shard.RegisterPayloadCodec(name, c.Version, c.Payload)
	}
}

// Lookup returns the registered experiment with the given name.
func Lookup(name string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// All returns the registered experiments in canonical (registration)
// order.
func All() []Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Experiment, len(regOrder))
	for i, name := range regOrder {
		out[i] = registry[name]
	}
	return out
}

// Names returns the registered experiment names in canonical order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

// ReproducibleGridExperiments lists the grid experiments that keep the
// byte-identical invariant, in canonical order. This is the "all"
// selection: non-reproducible experiments (replay jitter) only run when
// named explicitly, so every byte-identity check over "all" stays
// exact.
func ReproducibleGridExperiments() []string {
	var out []string
	for _, e := range All() {
		if e.Codec().New != nil && Reproducible(e) {
			out = append(out, e.Name())
		}
	}
	return out
}

// The paper's studies register here in canonical order. A new
// experiment registers itself from its own file's init (see tailq.go);
// within a package, init functions run in compiler file order, so files
// sorted after registry.go append after the built-ins — pinned by
// TestRegistryCanonicalOrder.
func init() {
	Register(fig5Experiment{})
	Register(figqExperiment{psi: true})
	Register(figqExperiment{psi: false})
	Register(table1Experiment{})
	Register(motivationExperiment{})
	Register(ablationExperiment{})
	Register(multiDeviceExperiment{})
}
