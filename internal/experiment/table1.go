package experiment

import (
	"fmt"
	"strings"

	"repro/internal/hwcost"
	"repro/internal/shard"
)

// Table1Result is Table I as a registry result: the structural-model
// estimate next to the paper's published figure for every design.
type Table1Result []hwcost.Row

// Rows renders the comparison as a text table.
func (rs Table1Result) Rows() ([]string, [][]string) {
	headers := []string{
		"I/O controller",
		"LUTs (model/paper)", "Registers (model/paper)",
		"DSP (m/p)", "RAM KB (m/p)", "Power mW (m/p)",
	}
	var out [][]string
	for _, r := range rs {
		out = append(out, []string{
			r.Name,
			fmt.Sprintf("%d / %d", r.Model.LUTs, r.Paper.LUTs),
			fmt.Sprintf("%d / %d", r.Model.Registers, r.Paper.Registers),
			fmt.Sprintf("%d / %d", r.Model.DSPs, r.Paper.DSPs),
			fmt.Sprintf("%d / %d", r.Model.BRAMKB, r.Paper.BRAMKB),
			fmt.Sprintf("%.1f / %.1f", r.Model.PowerMW, r.Paper.PowerMW),
		})
	}
	return headers, out
}

// Footer implements Footnoted: the Section V-B ratio claims, computed
// from the model next to the paper's figures.
func (rs Table1Result) Footer() string {
	byName := map[string]hwcost.Resources{}
	for _, row := range rs {
		byName[row.Name] = row.Model
	}
	p, g := byName["Proposed"], byName["GPIOCP"]
	mbB, mbF := byName["MB-B"], byName["MB-F"]
	pct := func(a, b int) float64 { return 100 * float64(a) / float64(b) }
	var b strings.Builder
	b.WriteString("Section V-B claims (model):\n")
	fmt.Fprintf(&b, "  proposed vs MB-F:   %5.1f%% LUTs, %5.1f%% registers (paper: 23.6%%, 22.4%%)\n",
		pct(p.LUTs, mbF.LUTs), pct(p.Registers, mbF.Registers))
	fmt.Fprintf(&b, "  proposed vs MB-B:   %5.1f%% LUTs, %5.1f%% registers (paper: 135.4%%, 185.6%%)\n",
		pct(p.LUTs, mbB.LUTs), pct(p.Registers, mbB.Registers))
	fmt.Fprintf(&b, "  proposed vs GPIOCP: +%4.1f%% LUTs, +%4.1f%% registers (paper: +30.5%%, +52.2%%)\n",
		pct(p.LUTs, g.LUTs)-100, pct(p.Registers, g.Registers)-100)
	fmt.Fprintf(&b, "  power vs MB-B: %4.1f%%  vs MB-F: %4.1f%% (paper: 8.7%%, 4.6%%)",
		100*p.PowerMW/mbB.PowerMW, 100*p.PowerMW/mbF.PowerMW)
	return b.String()
}

// table1Experiment is Table I as a registry entry. It is closed-form —
// a zero Codec, no cell grid — so it renders in full from any cover and
// is never sharded.
type table1Experiment struct{}

func (table1Experiment) Name() string { return ExpTable1 }
func (table1Experiment) Describe() string {
	return "Table I: hardware cost of the controller designs (closed-form)"
}
func (table1Experiment) CellKey() string                     { return ExpTable1 }
func (table1Experiment) CSVName() string                     { return "table1.csv" }
func (table1Experiment) Codec() Codec                        { return Codec{} }
func (table1Experiment) Grid(RunContext) (shard.Grid, error) { return shard.Grid{}, nil }
func (table1Experiment) Cell(RunContext, int, int) (any, error) {
	return nil, fmt.Errorf("experiment: table1 is closed-form and has no cells")
}
func (table1Experiment) CellSeed(RunContext, int, int) int64 { return 0 }
func (table1Experiment) Header(RunContext) string {
	return "Table I: hardware overhead of the evaluated I/O controllers\n" +
		"(structural resource model vs the paper's Vivado synthesis)\n\n"
}
func (table1Experiment) Aggregate(RunContext, func(int, int) any, func(int, int) bool) (Result, error) {
	return Table1Result(hwcost.Table1()), nil
}
