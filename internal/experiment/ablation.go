package experiment

import (
	"fmt"
	"strconv"

	"repro/internal/exec"
	"repro/internal/quality"
	"repro/internal/sched"
	"repro/internal/sched/ga"
	"repro/internal/sched/staticsched"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/taskmodel"
)

// AblationVariant is one design-choice configuration under study.
type AblationVariant struct {
	Name string
	// Run schedules one system and returns (Ψ, Υ); infeasible systems
	// return an error.
	Run func(cfg Config, seed int64, ts *taskmodel.TaskSet) (float64, float64, error)
}

// AblationResult summarises one variant at the study utilisation.
type AblationResult struct {
	Name        string
	Schedulable stats.Ratio
	MeanPsi     float64
	MeanUpsilon float64
}

// AblationVariants returns the studied design choices:
//
//   - the LCC-D slot policy against first-fit and best-fit (is the
//     contention term worth it?);
//   - near-ideal placement of sacrificed jobs (recovering Υ at no Ψ cost);
//   - the bounded demotion extension (schedulability beyond Algorithm 1's
//     deliberate stop);
//   - the GA without the reconfiguration's ideal-snapping, and without the
//     all-ideal seed individual.
func AblationVariants() []AblationVariant {
	staticVariant := func(name string, opts staticsched.Options) AblationVariant {
		return AblationVariant{
			Name: name,
			Run: func(cfg Config, seed int64, ts *taskmodel.TaskSet) (float64, float64, error) {
				ds, err := sched.ScheduleAll(ts, staticsched.New(opts))
				if err != nil {
					return 0, 0, err
				}
				psi, ups := ds.Metrics(quality.Linear{})
				return psi, ups, nil
			},
		}
	}
	gaVariant := func(name string, mutate func(*ga.Options)) AblationVariant {
		return AblationVariant{
			Name: name,
			Run: func(cfg Config, seed int64, ts *taskmodel.TaskSet) (float64, float64, error) {
				opts := cfg.GA
				opts.Seed = seed
				opts.Curve = quality.Linear{}
				// The runner parallelises across systems; keep the solver
				// serial so the pools do not nest.
				opts.Parallelism = 1
				mutate(&opts)
				fronts, err := scheduleGA(ts, opts)
				if err != nil {
					return 0, 0, err
				}
				// Single-device study: report the front's best points.
				// Sum in device order — float sums must have a fixed order
				// to stay reproducible.
				var psi, ups float64
				for _, dev := range ts.Devices() {
					f := fronts[dev]
					psi += f.BestPsi().Psi
					ups += f.BestUpsilon().Upsilon
				}
				n := float64(len(fronts))
				return psi / n, ups / n, nil
			},
		}
	}
	return []AblationVariant{
		staticVariant("static (paper: LCC-D)", staticsched.Options{}),
		staticVariant("static first-fit", staticsched.Options{Policy: staticsched.FirstFit}),
		staticVariant("static best-fit", staticsched.Options{Policy: staticsched.BestFit}),
		staticVariant("static near-ideal placement", staticsched.Options{PlaceNearIdeal: true}),
		staticVariant("static + demotion", staticsched.Options{AllowDemotion: true}),
		gaVariant("GA (paper)", func(*ga.Options) {}),
		gaVariant("GA no ideal-snap", func(o *ga.Options) { o.SnapToIdeal = false }),
		gaVariant("GA no ideal seed", func(o *ga.Options) { o.SeedIdeal = false }),
	}
}

// ablationUTag converts the caller-chosen study utilisation into a seed
// stream tag. The study point is not an axis index; tagging the seed path
// with the mill value makes sweeps over u draw independent systems
// (matching the other runners' point tags).
func ablationUTag(u float64) int64 { return int64(u * 1000) }

// ablationCell evaluates one system against every variant; the per-system
// variant outcomes double as the ablation shard-cell payload.
func ablationCell(cfg Config, u float64, s int) ([]qOutcome, error) {
	variants := AblationVariants()
	uTag := ablationUTag(u)
	ts, err := cfg.Gen.System(exec.RNG(cfg.Seed, streamAblation, uTag, int64(s), subGen), u)
	if err != nil {
		return nil, fmt.Errorf("ablation system %d: %w", s, err)
	}
	seed := exec.DeriveSeed(cfg.Seed, streamAblation, uTag, int64(s), subGA)
	out := make([]qOutcome, len(variants))
	for i, v := range variants {
		psi, ups, err := v.Run(cfg, seed, ts)
		if err != nil {
			continue
		}
		out[i] = qOutcome{Psi: psi, Ups: ups, OK: true}
	}
	return out, nil
}

// ablationAggregate folds the per-system variant outcomes into the study
// results in system order — shared by the in-process runner and the shard
// merge path. A nil has aggregates every system; a partial cover's
// predicate restricts the study to the present systems.
func ablationAggregate(cfg Config, at func(o, i int) []qOutcome, has func(o, i int) bool) []AblationResult {
	variants := AblationVariants()
	results := make([]AblationResult, len(variants))
	psis := make([][]float64, len(variants))
	upss := make([][]float64, len(variants))
	for i, v := range variants {
		results[i].Name = v.Name
	}
	for s := 0; s < cfg.Systems; s++ {
		if has != nil && !has(0, s) {
			continue
		}
		for i, o := range at(0, s) {
			results[i].Schedulable.Trials++
			if !o.OK {
				continue
			}
			results[i].Schedulable.Successes++
			psis[i] = append(psis[i], o.Psi)
			upss[i] = append(upss[i], o.Ups)
		}
	}
	for i := range results {
		results[i].MeanPsi = stats.Mean(psis[i])
		results[i].MeanUpsilon = stats.Mean(upss[i])
	}
	return results
}

// AblationStudy is the ablation experiment's registry result: one row
// per studied variant.
type AblationStudy []AblationResult

// ablationExperiment is the design-choice study as a registry entry:
// every variant runs on the same systems at the study utilisation, as
// one 1 × Systems grid, so each variant's aggregates see system s before
// system s+1.
type ablationExperiment struct{}

func (ablationExperiment) Name() string { return ExpAblation }
func (ablationExperiment) Describe() string {
	return "Ablation: static and GA design-choice variants at one utilisation"
}
func (ablationExperiment) CellKey() string { return ExpAblation }
func (ablationExperiment) CSVName() string { return "" }
func (ablationExperiment) Codec() Codec {
	return Codec{Version: 1, New: func() any { return new([]qOutcome) }, Payload: qSlicePayloadCodec()}
}
func (ablationExperiment) Grid(rc RunContext) (shard.Grid, error) {
	return shard.Grid{Points: 1, Systems: rc.Config.Systems}, nil
}
func (ablationExperiment) Cell(rc RunContext, _, system int) (any, error) {
	return ablationCell(rc.Config, rc.Params.ResolvedAblationU(), system)
}
func (ablationExperiment) CellSeed(rc RunContext, _, system int) int64 {
	return exec.DeriveSeed(rc.Config.Seed, streamAblation,
		ablationUTag(rc.Params.ResolvedAblationU()), int64(system), subGen)
}
func (ablationExperiment) Header(rc RunContext) string {
	return fmt.Sprintf("Ablation at U=%s (systems=%d, seed=%d)\n\n",
		strconv.FormatFloat(rc.Params.ResolvedAblationU(), 'f', 2, 64), rc.Config.Systems, rc.Config.Seed)
}
func (ablationExperiment) Aggregate(rc RunContext, at func(o, i int) any, has func(o, i int) bool) (Result, error) {
	return AblationStudy(ablationAggregate(rc.Config,
		func(o, i int) []qOutcome { return *at(o, i).(*[]qOutcome) }, has)), nil
}

// DefaultParams implements ParamDefaulter: the study utilisation
// defaults to 0.6.
func (ablationExperiment) DefaultParams(p ShardParams) ShardParams {
	p.AblationU = p.ResolvedAblationU()
	return p
}

// Rows renders the study as a text table.
func (rs AblationStudy) Rows() ([]string, [][]string) {
	headers := []string{"variant", "schedulable", "mean Psi", "mean Upsilon"}
	var rows [][]string
	for _, r := range rs {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.3f", r.Schedulable.Value()),
			fmt.Sprintf("%.3f", r.MeanPsi),
			fmt.Sprintf("%.3f", r.MeanUpsilon),
		})
	}
	return headers, rows
}
