package experiment

// The per-cell cost model behind cost-packed decomposition. Every cell's
// dominant cost is its GA solve — population × generations fitness
// evaluations over a system whose job count grows with the utilisation
// point — so the predicted cost of a cell is the GA budget scaled by the
// point's utilisation when the experiment exposes one. The model only
// has to be *proportional* to wall-clock to pack well; balanced dispatch
// further refines it with observed per-cell rates from prior journals
// (internal/dispatch), and no decomposition ever changes results.

import (
	"fmt"
	"sync"

	"repro/internal/shard"
)

// CellCoster is implemented by experiments that can predict a relative
// cost for each grid cell. Units are arbitrary — only ratios matter to a
// cost-packed decomposition. Experiments without the hook cost every
// cell the flat GA budget.
type CellCoster interface {
	CellCost(rc RunContext, point, system int) float64
}

// gaBudget is the flat per-cell cost: one GA solve's fitness-evaluation
// budget under the context's configuration.
func gaBudget(rc RunContext) float64 {
	n := rc.Config.GA.Population * rc.Config.GA.Generations
	if n < 1 {
		n = 1
	}
	return float64(n)
}

// utilAxis is a utilisation axis built on its first use and shared
// after it: a cost model prices every cell of a plan, so it must not
// rebuild the axis per cell, and package init does no work for it.
type utilAxis struct {
	once  sync.Once
	build func() []float64
	us    []float64
}

func (a *utilAxis) get() []float64 {
	a.once.Do(func() { a.us = a.build() })
	return a.us
}

var fig5Axis, figqAxis = utilAxis{build: Fig5Utils}, utilAxis{build: FigQUtils}

// CellCost implements CellCoster for Figure 5: the GA budget scaled by
// the cell's utilisation point (higher utilisation → more jobs → more
// expensive fitness evaluations).
func (fig5Experiment) CellCost(rc RunContext, point, system int) float64 {
	us := fig5Axis.get()
	if point < 0 || point >= len(us) {
		return gaBudget(rc)
	}
	return gaBudget(rc) * us[point]
}

// CellCost implements CellCoster for Figures 6/7, which share one cell
// computation over the quality sweep's utilisation axis.
func (figqExperiment) CellCost(rc RunContext, point, system int) float64 {
	us := figqAxis.get()
	if point < 0 || point >= len(us) {
		return gaBudget(rc)
	}
	return gaBudget(rc) * us[point]
}

// RunPlan describes a selection's decomposable surface: the runs a shard
// file for the selection records, their grids, which runs share one cell
// computation, and the predicted per-cell costs — everything a
// Decomposition needs to split the work without running any of it.
type RunPlan struct {
	// Names lists the runs in the selection's canonical order.
	Names []string
	// Grids holds each run's cell grid, parallel to Names.
	Grids []shard.Grid
	// Groups[ri] is the index of the first run sharing run ri's cell
	// computation (CellKey): fig6 and fig7 form one group, so a
	// decomposition splits the computation once and every member records
	// the same cells.
	Groups []int
	// Costs[ri][g] is the predicted cost of run ri's global cell index g,
	// from the experiment's CellCoster hook (flat GA budget without one).
	// Runs of one group carry identical rows.
	Costs [][]float64
}

// PlanSelection builds the RunPlan for a selection under params p.
func PlanSelection(selection string, p ShardParams) (*RunPlan, error) {
	names, err := SelectionRuns(selection)
	if err != nil {
		return nil, err
	}
	rc := p.Normalised().Context(1)
	plan := &RunPlan{Names: names}
	firstOfKey := make(map[string]int)
	for ri, name := range names {
		e, err := get(name)
		if err != nil {
			return nil, err
		}
		g, err := gridOf(e, rc)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", name, err)
		}
		group, ok := firstOfKey[e.CellKey()]
		if !ok {
			group = ri
			firstOfKey[e.CellKey()] = ri
		}
		costs := make([]float64, g.Cells())
		coster, _ := e.(CellCoster)
		for o := 0; o < g.Points; o++ {
			for i := 0; i < g.Systems; i++ {
				c := gaBudget(rc)
				if coster != nil {
					c = coster.CellCost(rc, o, i)
				}
				costs[o*g.Systems+i] = c
			}
		}
		plan.Grids = append(plan.Grids, g)
		plan.Groups = append(plan.Groups, group)
		plan.Costs = append(plan.Costs, costs)
	}
	return plan, nil
}

// TotalCost sums the predicted cost of the given per-run cell sets (nil
// sets cost nothing). Group members are summed individually, mirroring
// how every member records its cells.
func (rp *RunPlan) TotalCost(cells [][]int) float64 {
	total := 0.0
	for ri := range rp.Costs {
		if ri >= len(cells) {
			break
		}
		for _, g := range cells[ri] {
			if g >= 0 && g < len(rp.Costs[ri]) {
				total += rp.Costs[ri][g]
			}
		}
	}
	return total
}
