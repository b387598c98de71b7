package experiment

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/sched/fps"
	"repro/internal/sched/ga"
	"repro/internal/sched/gpiocp"
	"repro/internal/sched/staticsched"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/taskmodel"
)

// Config parameterises the experiment runners.
type Config struct {
	// Systems is the number of synthetic systems per utilisation point
	// (paper: 1000).
	Systems int
	// Seed drives all randomness. Each (utilisation point, system) pair
	// derives a private sub-seed (exec.DeriveSeed), so results are
	// identical at every Parallelism.
	Seed int64
	// Parallelism bounds the worker goroutines the runners fan the
	// systems × utilisation-point grid across; <= 0 selects one worker
	// per CPU, 1 runs serially. It never changes the results — only the
	// wall-clock time. The runners parallelise across systems and run
	// each GA solve serially, so Parallelism alone decides the goroutine
	// budget.
	Parallelism int
	// GA is the solver configuration (paper: population 300, 500
	// generations).
	GA ga.Options
	// Gen is the task-set generator configuration.
	Gen gen.Config
}

// Default returns the scaled-down configuration used by tests, benches and
// the CLI unless overridden.
func Default() Config {
	return Config{
		Systems: 100,
		Seed:    1,
		GA:      ga.DefaultOptions(),
		Gen:     gen.PaperConfig(),
	}
}

// PaperScale returns the full Section V-A configuration. Running it takes
// hours of CPU; the CLI exposes it behind -paperscale.
func PaperScale() Config {
	c := Default()
	c.Systems = 1000
	c.GA = ga.PaperOptions()
	return c
}

// Seed-stream tags keeping the runners' derived randomness disjoint.
const (
	streamFig5 int64 = iota + 1
	streamFigQ
	streamAblation
	streamMultiDevice
	streamMotivation
)

// Per-cell sub-stream tags: each (runner, point, system) cell owns one
// stream for system generation and one for the GA solver seed.
const (
	subGen int64 = iota
	subGA
)

// qOutcome is one cell's quality outcome, shared by the runners: the
// achieved metrics and whether the method scheduled the system at all.
// The fields are exported (with stable JSON names) because the outcome is
// also the cell payload of the shard files.
type qOutcome struct {
	Psi float64 `json:"psi"`
	Ups float64 `json:"upsilon"`
	OK  bool    `json:"ok"`
}

// CellSelector picks the grid cells a run evaluates; nil selects every
// cell. The shard workflow passes a round-robin ownership predicate
// (shard.Plan.Selector) so N processes cover the grid disjointly.
type CellSelector func(point, system int) bool

// Method names as they appear in the figures.
const (
	MethodFPSOffline = "FPS-offline"
	MethodFPSOnline  = "FPS-online"
	MethodGPIOCP     = "GPIOCP"
	MethodStatic     = "Static"
	MethodGA         = "GA"
)

// Fig5Methods lists the schedulability curves of Figure 5 in legend order.
var Fig5Methods = []string{MethodFPSOffline, MethodFPSOnline, MethodGPIOCP, MethodStatic, MethodGA}

// FigQMethods lists the offline methods of Figures 6 and 7.
var FigQMethods = []string{MethodFPSOffline, MethodGPIOCP, MethodStatic, MethodGA}

// Fig5Point is the schedulable fraction of every method at one utilisation.
type Fig5Point struct {
	U     float64
	Rates map[string]stats.Ratio
}

// Fig5Result is the full Figure 5 dataset.
type Fig5Result struct {
	Points []Fig5Point
}

// Fig5Utils is the x axis of Figure 5.
func Fig5Utils() []float64 {
	var us []float64
	for u := 0.20; u <= 0.901; u += 0.05 {
		us = append(us, round2(u))
	}
	return us
}

// round2 rounds to two decimals, away from zero on ties. (The previous
// int-truncation formula rounded negative inputs toward zero — −0.005
// became 0.00 — which would silently corrupt any metric that can go
// negative, such as a Penalised-curve Υ.)
func round2(x float64) float64 { return math.Round(x*100) / 100 }

// scheduleStatic runs the static scheduler over all partitions.
func scheduleStatic(ts *taskmodel.TaskSet) (sched.DeviceSchedules, error) {
	return sched.ScheduleAll(ts, staticsched.New(staticsched.Options{}))
}

// scheduleGA solves every partition with the GA and returns the fronts.
// With the paper's single-device configuration there is exactly one front.
func scheduleGA(ts *taskmodel.TaskSet, opts ga.Options) (map[taskmodel.DeviceID]*ga.Result, error) {
	fronts := make(map[taskmodel.DeviceID]*ga.Result)
	parts := ts.JobsByDevice()
	for _, dev := range ts.Devices() {
		res, err := ga.Solve(parts[dev], opts)
		if err != nil {
			return nil, err
		}
		fronts[dev] = res
	}
	return fronts, nil
}

// fpsOnlineSchedulable applies the worst-case analysis per device
// partition.
func fpsOnlineSchedulable(ts *taskmodel.TaskSet) bool {
	byDev := make(map[taskmodel.DeviceID][]taskmodel.Task)
	for i := range ts.Tasks {
		t := ts.Tasks[i]
		byDev[t.Device] = append(byDev[t.Device], t)
	}
	for _, tasks := range byDev {
		if !fps.Analyze(tasks).Schedulable {
			return false
		}
	}
	return true
}

// fig5Outcome is the per-system verdict of the five methods; it doubles
// as the Figure 5 shard-cell payload.
type fig5Outcome struct {
	Offline bool `json:"offline"`
	Online  bool `json:"online"`
	GPIOCP  bool `json:"gpiocp"`
	Static  bool `json:"static"`
	GA      bool `json:"ga"`
}

// fig5Cell evaluates one (utilisation point, system) cell: it generates
// the system from the cell's derived sub-seed and runs all five methods.
func fig5Cell(cfg Config, us []float64, ui, s int) (fig5Outcome, error) {
	u := us[ui]
	ts, err := cfg.Gen.System(exec.RNG(cfg.Seed, streamFig5, int64(ui), int64(s), subGen), u)
	if err != nil {
		return fig5Outcome{}, fmt.Errorf("fig5 u=%.2f system %d: %w", u, s, err)
	}
	var o fig5Outcome
	_, offErr := sched.ScheduleAll(ts, fps.Offline{})
	o.Offline = offErr == nil
	o.Online = fpsOnlineSchedulable(ts)
	_, cpErr := sched.ScheduleAll(ts, gpiocp.Scheduler{})
	o.GPIOCP = cpErr == nil
	_, stErr := scheduleStatic(ts)
	o.Static = stErr == nil
	gaOpts := cfg.solverOpts(streamFig5, int64(ui), int64(s))
	_, gaErr := scheduleGA(ts, gaOpts)
	o.GA = gaErr == nil
	for _, err := range []error{offErr, cpErr, stErr, gaErr} {
		if err != nil && !errors.Is(err, sched.ErrInfeasible) {
			return fig5Outcome{}, fmt.Errorf("fig5 u=%.2f system %d: unexpected: %w", u, s, err)
		}
	}
	return o, nil
}

// fig5Aggregate folds an outcome grid into the Figure 5 result in grid
// order. Both the in-process runner and the shard merge path end here,
// which is what makes a merged result identical to an unsharded run's.
// A nil has aggregates the complete grid; a partial cover passes its
// presence predicate and the rates are computed over the present cells
// only (Trials counts present systems, so a partial point's fraction is
// an honest estimate, not a complete point's value diluted by gaps).
func fig5Aggregate(cfg Config, us []float64, at func(o, i int) fig5Outcome, has func(o, i int) bool) *Fig5Result {
	res := &Fig5Result{}
	for ui, u := range us {
		point := Fig5Point{U: u, Rates: make(map[string]stats.Ratio)}
		record := func(method string, ok bool) {
			r := point.Rates[method]
			r.Trials++
			if ok {
				r.Successes++
			}
			point.Rates[method] = r
		}
		for s := 0; s < cfg.Systems; s++ {
			if has != nil && !has(ui, s) {
				continue
			}
			o := at(ui, s)
			record(MethodFPSOffline, o.Offline)
			record(MethodFPSOnline, o.Online)
			record(MethodGPIOCP, o.GPIOCP)
			record(MethodStatic, o.Static)
			record(MethodGA, o.GA)
		}
		res.Points = append(res.Points, point)
	}
	return res
}

// fig5Experiment is Figure 5 as a registry entry: the fraction of
// schedulable systems per utilisation for FPS-offline, FPS-online,
// GPIOCP, static and GA.
type fig5Experiment struct{}

func (fig5Experiment) Name() string { return ExpFig5 }
func (fig5Experiment) Describe() string {
	return "Figure 5: schedulable fraction vs utilisation for the five methods"
}
func (fig5Experiment) CellKey() string { return ExpFig5 }
func (fig5Experiment) CSVName() string { return "fig5.csv" }
func (fig5Experiment) Codec() Codec {
	return Codec{Version: 1, New: func() any { return new(fig5Outcome) }, Payload: fig5PayloadCodec()}
}
func (fig5Experiment) Grid(rc RunContext) (shard.Grid, error) {
	return shard.Grid{Points: len(Fig5Utils()), Systems: rc.Config.Systems}, nil
}
func (fig5Experiment) Cell(rc RunContext, point, system int) (any, error) {
	return fig5Cell(rc.Config, Fig5Utils(), point, system)
}
func (fig5Experiment) CellSeed(rc RunContext, point, system int) int64 {
	return exec.DeriveSeed(rc.Config.Seed, streamFig5, int64(point), int64(system), subGen)
}
func (fig5Experiment) Header(rc RunContext) string {
	cfg := rc.Config
	return fmt.Sprintf("Figure 5: system schedulability (systems/point=%d, GA %dx%d, seed=%d)\n\n",
		cfg.Systems, cfg.GA.Population, cfg.GA.Generations, cfg.Seed)
}
func (fig5Experiment) Aggregate(rc RunContext, at func(o, i int) any, has func(o, i int) bool) (Result, error) {
	return fig5Aggregate(rc.Config, Fig5Utils(),
		func(o, i int) fig5Outcome { return *at(o, i).(*fig5Outcome) }, has), nil
}

// solverOpts derives the GA options for one grid cell: a private solver
// seed, and serial fitness evaluation — the runner already owns the
// worker pool, so nesting a second pool per system would only oversubscribe
// the CPUs.
func (c *Config) solverOpts(stream int64, point, system int64) ga.Options {
	opts := c.GA
	opts.Seed = exec.DeriveSeed(c.Seed, stream, point, system, subGA)
	opts.Parallelism = 1
	return opts
}

// Rows renders the result as a text table (one row per utilisation).
func (r *Fig5Result) Rows() ([]string, [][]string) {
	headers := append([]string{"U"}, Fig5Methods...)
	var rows [][]string
	for _, p := range r.Points {
		row := []string{fmt.Sprintf("%.2f", p.U)}
		for _, m := range Fig5Methods {
			row = append(row, fmt.Sprintf("%.3f", p.Rates[m].Value()))
		}
		rows = append(rows, row)
	}
	return headers, rows
}

// PlotTitle implements Plottable.
func (r *Fig5Result) PlotTitle() string { return "Fig 5: schedulable fraction vs utilisation" }

// Series converts the result to plot series in method order.
func (r *Fig5Result) Series() (xlabels []string, series []Curveable) {
	for _, p := range r.Points {
		xlabels = append(xlabels, fmt.Sprintf("%.2f", p.U))
	}
	for _, m := range Fig5Methods {
		vals := make([]float64, len(r.Points))
		for i, p := range r.Points {
			vals[i] = p.Rates[m].Value()
		}
		series = append(series, Curveable{Name: m, Values: vals})
	}
	return xlabels, series
}

// Curveable is a named value series (decoupled from textplot so results
// remain plain data).
type Curveable struct {
	Name   string
	Values []float64
}
