package experiment

// The tailq experiment: the distribution of per-job quality across the
// utilisation sweep — a robustness view neither paper figure shows.
// Figure 6 reports the fraction of exact jobs and Figure 7 the mean
// normalised quality Υ, both system-level aggregates; tailq asks how the
// individual jobs behind those means are doing under the deployable
// static scheduler: what fraction of all jobs land exactly on their
// ideal instant, within 90% and 50% of their ideal quality, and how bad
// the single worst job gets.
//
// The file is also the registry's worked extensibility example
// (docs/EXPERIMENTS.md): the experiment is wired into sharding, dispatch
// retry, partial merges, the CLI and the facade purely by the Register
// call below — no switch in internal/shard, internal/dispatch or
// cmd/ioschedbench names it.

import (
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/quality"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/stats"
)

// streamTailQ is the experiment's private seed stream. It must differ
// from every other experiment's stream tag (experiment.go's iota block
// ends at streamMotivation == 5) so tailq draws systems independent of
// the other sweeps.
const streamTailQ int64 = 6

// tailqOutcome is one system's per-job quality census; it doubles as the
// tailq shard-cell payload. All fields are integer counts or fixed-order
// float sums, so aggregation across systems is deterministic in grid
// order by construction.
type tailqOutcome struct {
	// OK marks the system schedulable by the static scheduler; the job
	// fields are zero otherwise.
	OK bool `json:"ok"`
	// Jobs counts the system's jobs; Exact those starting exactly at
	// their ideal instants; Ge90 and Ge50 those achieving at least 90%
	// and 50% of their ideal quality (cumulative bands: Exact ⊆ Ge90 ⊆
	// Ge50 under any curve maximal at the ideal instant).
	Jobs  int `json:"jobs"`
	Exact int `json:"exact"`
	Ge90  int `json:"ge90"`
	Ge50  int `json:"ge50"`
	// SumUps is the sum of per-job normalised qualities υ = V(κ)/V(δ);
	// MinUps the worst single job's υ (1 when the system has no jobs).
	SumUps float64 `json:"sum_upsilon"`
	MinUps float64 `json:"min_upsilon"`
}

// TailQPoint summarises the pooled per-job quality distribution at one
// utilisation.
type TailQPoint struct {
	U float64
	// Schedulable is the fraction of systems the static scheduler
	// scheduled; the job statistics pool over exactly those systems.
	Schedulable stats.Ratio
	// Jobs counts the pooled jobs; Exact, Ge90 and Ge50 the fractions of
	// them in each quality band; MeanUps their mean υ; MinUps the single
	// worst job's υ.
	Jobs    int
	Exact   float64
	Ge90    float64
	Ge50    float64
	MeanUps float64
	MinUps  float64
}

// TailQResult is the tailq dataset: one pooled distribution per
// utilisation point.
type TailQResult struct {
	Points []TailQPoint
}

// Rows renders the result as a text table.
func (r *TailQResult) Rows() ([]string, [][]string) {
	headers := []string{"U", "schedulable", "jobs", "exact", ">=0.9", ">=0.5", "mean", "min"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.U),
			fmt.Sprintf("%.3f", p.Schedulable.Value()),
			fmt.Sprintf("%d", p.Jobs),
			fmt.Sprintf("%.3f", p.Exact),
			fmt.Sprintf("%.3f", p.Ge90),
			fmt.Sprintf("%.3f", p.Ge50),
			fmt.Sprintf("%.3f", p.MeanUps),
			fmt.Sprintf("%.3f", p.MinUps),
		})
	}
	return headers, rows
}

// PlotTitle implements Plottable.
func (r *TailQResult) PlotTitle() string {
	return "TailQ: fraction of jobs per quality band vs utilisation"
}

// Series converts the quality-band fractions to plot series.
func (r *TailQResult) Series() (xlabels []string, series []Curveable) {
	for _, p := range r.Points {
		xlabels = append(xlabels, fmt.Sprintf("%.2f", p.U))
	}
	bands := []struct {
		name string
		at   func(p TailQPoint) float64
	}{
		{"exact", func(p TailQPoint) float64 { return p.Exact }},
		{">=0.9", func(p TailQPoint) float64 { return p.Ge90 }},
		{">=0.5", func(p TailQPoint) float64 { return p.Ge50 }},
	}
	for _, b := range bands {
		vals := make([]float64, len(r.Points))
		for i, p := range r.Points {
			vals[i] = b.at(p)
		}
		series = append(series, Curveable{Name: b.name, Values: vals})
	}
	return xlabels, series
}

// tailqExperiment is the per-job quality-tail study as a registry entry.
type tailqExperiment struct{}

func init() { Register(tailqExperiment{}) }

func (tailqExperiment) Name() string { return ExpTailQ }
func (tailqExperiment) Describe() string {
	return "TailQ: per-job quality tail distribution vs utilisation (static scheduler)"
}
func (tailqExperiment) CellKey() string { return ExpTailQ }
func (tailqExperiment) CSVName() string { return "tailq.csv" }
func (tailqExperiment) Codec() Codec {
	return Codec{Version: 1, New: func() any { return new(tailqOutcome) }, Payload: tailqPayloadCodec()}
}
func (tailqExperiment) Grid(rc RunContext) (shard.Grid, error) {
	return shard.Grid{Points: len(Fig5Utils()), Systems: rc.Config.Systems}, nil
}
func (tailqExperiment) CellSeed(rc RunContext, point, system int) int64 {
	return exec.DeriveSeed(rc.Config.Seed, streamTailQ, int64(point), int64(system), subGen)
}
func (tailqExperiment) Header(rc RunContext) string {
	cfg := rc.Config
	return fmt.Sprintf("TailQ: per-job quality distribution under the static scheduler (systems/point=%d, seed=%d)\n\n",
		cfg.Systems, cfg.Seed)
}

// Cell evaluates one (utilisation point, system) cell: it generates the
// system from the cell's derived sub-seed, schedules it with the static
// scheduler and takes a census of every job's normalised quality.
func (tailqExperiment) Cell(rc RunContext, point, system int) (any, error) {
	cfg := rc.Config
	us := Fig5Utils()
	u := us[point]
	ts, err := cfg.Gen.System(exec.RNG(cfg.Seed, streamTailQ, int64(point), int64(system), subGen), u)
	if err != nil {
		return tailqOutcome{}, fmt.Errorf("tailq u=%.2f system %d: %w", u, system, err)
	}
	ds, err := scheduleStatic(ts)
	if err != nil {
		if errors.Is(err, sched.ErrInfeasible) {
			return tailqOutcome{}, nil
		}
		return tailqOutcome{}, fmt.Errorf("tailq u=%.2f system %d: unexpected: %w", u, system, err)
	}
	curve := quality.Linear{}
	o := tailqOutcome{OK: true, MinUps: 1}
	// Devices, then each schedule's job order: a fixed iteration order
	// keeps the float sum reproducible everywhere.
	for _, dev := range ts.Devices() {
		s := ds[dev]
		starts := s.StartTimes()
		for _, j := range s.Jobs() {
			kappa := starts[j.ID]
			ideal := curve.Value(&j, j.Ideal)
			if ideal <= 0 {
				continue
			}
			ups := curve.Value(&j, kappa) / ideal
			o.Jobs++
			o.SumUps += ups
			if ups < o.MinUps {
				o.MinUps = ups
			}
			if quality.Exact(&j, kappa) {
				o.Exact++
			}
			if ups >= 0.9 {
				o.Ge90++
			}
			if ups >= 0.5 {
				o.Ge50++
			}
		}
	}
	return o, nil
}

// Aggregate pools the per-system censuses per utilisation point in grid
// order: integer band counts and fixed-order float sums, so sharded,
// partial and in-process runs agree exactly.
func (tailqExperiment) Aggregate(rc RunContext, at func(o, i int) any, has func(o, i int) bool) (Result, error) {
	cfg := rc.Config
	res := &TailQResult{}
	for ui, u := range Fig5Utils() {
		p := TailQPoint{U: u, MinUps: 1}
		var sum float64
		var exact, ge90, ge50 int
		for s := 0; s < cfg.Systems; s++ {
			if has != nil && !has(ui, s) {
				continue
			}
			o := *at(ui, s).(*tailqOutcome)
			p.Schedulable.Trials++
			if !o.OK {
				continue
			}
			p.Schedulable.Successes++
			p.Jobs += o.Jobs
			exact += o.Exact
			ge90 += o.Ge90
			ge50 += o.Ge50
			sum += o.SumUps
			if o.Jobs > 0 && o.MinUps < p.MinUps {
				p.MinUps = o.MinUps
			}
		}
		if p.Jobs > 0 {
			n := float64(p.Jobs)
			p.Exact = float64(exact) / n
			p.Ge90 = float64(ge90) / n
			p.Ge50 = float64(ge50) / n
			p.MeanUps = sum / n
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}
