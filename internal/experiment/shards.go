package experiment

// Shard/merge support: every grid experiment decomposes into a cell
// computation and a grid-order aggregation (see engine.go), so any cell
// subset can be evaluated by an independent process and re-aggregated
// later. This file is the bridge to internal/shard: ShardParams is the
// run parameterisation recorded in every shard file, and RunShard drives
// whole sharded runs through the registry.
//
// The invariant, inherited from the execution engine and enforced by the
// shard-equivalence tests: for any shard count and any parallelism,
// merging the N shard outputs and aggregating is identical to the
// unsharded run — each cell's randomness comes from a derived sub-seed
// over its (experiment, point, system) path, the cell payloads
// round-trip losslessly through the versioned codec, and the merge path
// re-enters the exact aggregation code the in-process runners use.

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/cellcache"
	"repro/internal/shard"
)

// ErrUnknownExperiment reports a selection that names no registered
// experiment; test with errors.Is (the CLI maps it to its historical
// exit code 2).
var ErrUnknownExperiment = errors.New("unknown experiment")

// Experiment names as the CLI and the shard files spell them.
const (
	ExpFig5        = "fig5"
	ExpFig6        = "fig6"
	ExpFig7        = "fig7"
	ExpTable1      = "table1"
	ExpMotivation  = "motivation"
	ExpAblation    = "ablation"
	ExpMultiDevice = "multidevice"
	ExpTailQ       = "tailq"
	// ExpJitter is the wall-clock replay jitter experiment. It is
	// non-reproducible (payloads measure the host), so ExpAll excludes
	// it: it only runs when named explicitly.
	ExpJitter = "jitter"
	// ExpAll selects every reproducible experiment.
	ExpAll = "all"
)

// ShardParams is the run parameterisation recorded in every shard file:
// everything that decides the grid contents and the rendered output,
// and nothing host-local (parallelism is deliberately absent — it never
// changes results, and each shard host picks its own). Merge rebuilds
// the experiment configuration from the recorded params exactly as the
// CLI builds one from its flags, and rejects shard files whose params
// differ.
//
// Zero values select the configuration defaults (matching the CLI's "0 =
// config default" flag semantics); Seed is always taken literally.
// RunShard records the params with every default resolved to its
// effective value, so shards of the same run merge regardless of which
// spelling (zero value or explicit default) produced them.
type ShardParams struct {
	PaperScale    bool  `json:"paper_scale,omitempty"`
	Systems       int   `json:"systems,omitempty"`
	Seed          int64 `json:"seed"`
	GAPopulation  int   `json:"ga_population,omitempty"`
	GAGenerations int   `json:"ga_generations,omitempty"`
	// AblationU is the ablation study utilisation (0 = 0.6, the CLI
	// default).
	AblationU float64 `json:"ablation_u,omitempty"`
	// MultiDeviceU and MultiDeviceCounts parameterise the partitioned
	// scaling study (0/nil = the CLI's U=0.8 over 1,2,4,8 devices).
	MultiDeviceU      float64 `json:"multidevice_u,omitempty"`
	MultiDeviceCounts []int   `json:"multidevice_counts,omitempty"`
	// MotivationWrites overrides the motivation experiment's write count
	// (0 = DefaultMotivation's).
	MotivationWrites int `json:"motivation_writes,omitempty"`
	// The replay jitter experiment's knobs (0 = the defaults its
	// ParamDefaulter records; see replayjitter.go). Durations are in
	// nanoseconds because ShardParams is a wire format.
	ReplayTickNs  int64 `json:"replay_tick_ns,omitempty"`
	ReplayCapNs   int64 `json:"replay_cap_ns,omitempty"`
	ReplayWarmup  int   `json:"replay_warmup,omitempty"`
	ReplaySystems int   `json:"replay_systems,omitempty"`
	// ReplayNoPin disables sched-affinity pinning. The polarity is
	// inverted so the zero value means "pin", matching the harness
	// default.
	ReplayNoPin bool `json:"replay_no_pin,omitempty"`
}

// Config resolves the sweep configuration the params describe, mirroring
// the CLI's flag handling so a merge reproduces the unsharded run's
// configuration bit for bit.
func (p ShardParams) Config() Config {
	cfg := Default()
	if p.PaperScale {
		cfg = PaperScale()
	}
	cfg.Seed = p.Seed
	if p.Systems > 0 {
		cfg.Systems = p.Systems
	}
	if p.GAPopulation > 0 {
		cfg.GA.Population = p.GAPopulation
	}
	if p.GAGenerations > 0 {
		cfg.GA.Generations = p.GAGenerations
	}
	return cfg
}

// Motivation resolves the motivation experiment configuration.
func (p ShardParams) Motivation() MotivationConfig {
	cfg := DefaultMotivation()
	cfg.Seed = p.Seed
	if p.MotivationWrites > 0 {
		cfg.Writes = p.MotivationWrites
	}
	return cfg
}

// ResolvedAblationU returns the ablation study utilisation.
func (p ShardParams) ResolvedAblationU() float64 {
	if p.AblationU == 0 {
		return 0.6
	}
	return p.AblationU
}

// ResolvedMultiDevice returns the partitioned-scaling study's total
// utilisation and device-count axis.
func (p ShardParams) ResolvedMultiDevice() (float64, []int) {
	u, counts := p.MultiDeviceU, p.MultiDeviceCounts
	if u == 0 {
		u = 0.8
	}
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	return u, counts
}

// Normalised resolves every defaultable field to its effective value, so
// equivalent runs record byte-equal params no matter which zero-value
// spelling produced them — shard.Merge compares the recorded bytes, and
// a CLI shard must merge with a library shard of the same run. RunShard
// normalises before recording; dispatch drivers normalise before
// comparing a worker's output against the plan.
//
// The base sweep fields resolve through Config; every registered
// experiment that owns params of its own resolves them through its
// ParamDefaulter hook, so the params layer never hard-codes an
// experiment.
func (p ShardParams) Normalised() ShardParams {
	cfg := p.Config()
	p.Systems = cfg.Systems
	p.GAPopulation = cfg.GA.Population
	p.GAGenerations = cfg.GA.Generations
	for _, e := range All() {
		if d, ok := e.(ParamDefaulter); ok {
			p = d.DefaultParams(p)
		}
	}
	return p
}

// HostFingerprint is the one-line host identity recorded in shard
// files holding non-reproducible runs: platform, CPU count and Go
// release — the coordinates a jitter distribution is meaningless
// without.
func HostFingerprint() string {
	return fmt.Sprintf("%s/%s cpus=%d %s",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
}

// SelectionRuns expands a CLI selection ("all" or one experiment name)
// into the grid experiments a shard file for that selection records, in
// canonical order, resolving names through the registry. "all" expands
// to the reproducible grid experiments only — a non-reproducible
// experiment (replay jitter) runs when named explicitly, never as a
// stowaway that would break the byte-identity of an "all" run. It
// rejects selections with no grid to shard (Table I is a closed-form
// model) and reports ErrUnknownExperiment for unregistered names.
func SelectionRuns(selection string) ([]string, error) {
	if selection == ExpAll {
		return ReproducibleGridExperiments(), nil
	}
	e, ok := Lookup(selection)
	if !ok {
		return nil, fmt.Errorf("experiment: %w %q", ErrUnknownExperiment, selection)
	}
	if e.Codec().New == nil {
		return nil, fmt.Errorf("experiment: %q is a closed-form model with no grid to shard; run it directly", selection)
	}
	return []string{e.Name()}, nil
}

// SelectionReproducible reports whether every experiment the selection
// expands to keeps the byte-identical invariant. Unknown selections
// report true: the caller's next registry lookup surfaces the real
// error.
func SelectionReproducible(selection string) bool {
	names, err := SelectionRuns(selection)
	if err != nil {
		return true
	}
	for _, name := range names {
		if e, ok := Lookup(name); ok && !Reproducible(e) {
			return false
		}
	}
	return true
}

// RunShard evaluates shard index of shards for the given selection ("all"
// or one grid experiment) and returns the versioned shard file recording
// the run parameters and every evaluated cell. The decomposition is
// round-robin over each experiment's grid, so all shards carry a
// near-equal share of every utilisation point. Experiments sharing a
// cell key (Figures 6 and 7) are computed once and recorded under each
// name, exactly as an unsharded "all" run renders one computation twice.
func RunShard(selection string, p ShardParams, parallelism, shards, index int) (*shard.File, error) {
	return RunShardCached(selection, p, parallelism, shards, index, nil)
}

// RunShardCached is RunShard with a cell cache attached (nil behaves
// exactly like RunShard): cached cells are reused, computed cells are
// deposited, and the returned file is byte-identical to an uncached run's
// (see unitCells).
func RunShardCached(selection string, p ShardParams, parallelism, shards, index int, cache *cellcache.Store) (*shard.File, error) {
	s, err := newSelectionFile(selection, p, parallelism, shards, index)
	if err != nil {
		return nil, err
	}
	return s.run(cache)
}

// selectionFile is one file of a selection being assembled — a round-
// robin shard, or a cell batch when f.Batch is set — with the selection's
// runs resolved under rc.
type selectionFile struct {
	f     *shard.File
	rc    RunContext
	names []string
	exps  []Experiment
	grids []shard.Grid
}

// newSelectionFile resolves the selection's runs and starts the file a
// run of them records: the normalised params, the decomposition header
// and, for a non-reproducible selection, the host fingerprint.
func newSelectionFile(selection string, p ShardParams, parallelism, shards, index int) (*selectionFile, error) {
	if _, err := shard.NewPlan(shards, index); err != nil {
		return nil, err
	}
	names, err := SelectionRuns(selection)
	if err != nil {
		return nil, err
	}
	p = p.Normalised()
	params, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("experiment: encode params: %w", err)
	}
	s := &selectionFile{
		f:     &shard.File{Version: shard.FormatVersion, Selection: selection, Shards: shards, Index: index, Params: params},
		rc:    p.Context(parallelism),
		names: names,
	}
	if !SelectionReproducible(selection) {
		// Non-reproducible payloads are measurements of a host; record
		// which one, so a reader of the file (or of a merge of files)
		// knows what produced the numbers.
		s.f.Host = HostFingerprint()
	}
	for _, name := range names {
		e, err := get(name)
		if err != nil {
			return nil, err
		}
		g, err := gridOf(e, s.rc)
		if err != nil {
			return nil, err
		}
		s.exps, s.grids = append(s.exps, e), append(s.grids, g)
	}
	return s, nil
}

// run computes the file's cells, serving what cache holds (nil: nothing)
// and depositing the rest.
func (s *selectionFile) run(cache *cellcache.Store) (*shard.File, error) {
	if _, err := s.fill(NewCacheProbe(cache), true); err != nil {
		return nil, err
	}
	return s.f, nil
}

// fill appends the file's runs, each holding the cells the file owns as
// unitCells produces them through cp: a batch's cell set, or the shard's
// round-robin stride index, index+shards, … of the grid. Runs sharing a
// cell key and a cell set (Figures 6 and 7) are produced once and
// recorded under each name, exactly as an unsharded "all" run renders
// one computation twice. Without compute, the first run the cache does
// not hold in full stops the fill with ok false.
func (s *selectionFile) fill(cp *CacheProbe, compute bool) (bool, error) {
	byKey := make(map[string][]shard.Cell)
	for ri, e := range s.exps {
		g, key := s.grids[ri], e.CellKey()
		var idx []int
		if s.f.Batch != nil {
			idx = s.f.Batch.Cells[ri]
			key += "|" + shard.FormatRanges(idx)
		} else {
			for gi := s.f.Index; gi < g.Cells(); gi += s.f.Shards {
				idx = append(idx, gi)
			}
		}
		cs, ok := byKey[key]
		if !ok {
			var err error
			if cs, ok, err = unitCells(e, s.rc, g, idx, cp, compute); err != nil || !ok {
				return false, err
			}
			byKey[key] = cs
		}
		s.f.Runs = append(s.f.Runs, shard.Run{
			Experiment:     s.names[ri],
			Grid:           g,
			PayloadVersion: e.Codec().Version,
			Cells:          cs,
		})
	}
	return true, nil
}
