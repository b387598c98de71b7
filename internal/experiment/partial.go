package experiment

// Streaming/partial aggregation: FromCellsPartial (engine.go) accepts
// any subset of a run's grid cells — typically the contents of a
// shard.PartialCover built from whichever shard files exist — and
// renders provisional results over the present cells only, alongside an
// exact Coverage report. It is the one aggregation: FromCells is
// FromCellsPartial plus a completeness check. An incomplete subset
// reaches the Aggregate hook with a presence predicate, a complete one
// without, exactly as the in-process run does — so partial output
// converges to, never diverges from, the final figures.

import "fmt"

// Coverage reports how much of a run's grid a partial cell set covers.
type Coverage struct {
	// Have and Total count present cells against the full grid.
	Have, Total int
	// PointHave[p] counts the present cells at outer grid point p; each
	// point has Inner cells in the full grid.
	PointHave []int
	// Inner is the grid's inner dimension (systems per point).
	Inner int
}

// Complete reports whether every cell of the grid is present.
func (c Coverage) Complete() bool { return c.Have == c.Total }

// Fraction returns the covered fraction of the grid, in [0, 1].
func (c Coverage) Fraction() float64 {
	if c.Total == 0 {
		return 1
	}
	return float64(c.Have) / float64(c.Total)
}

// String renders the coverage as "have/total cells (pct%)".
func (c Coverage) String() string {
	return fmt.Sprintf("%d/%d cells (%.1f%%)", c.Have, c.Total, 100*c.Fraction())
}

// Point renders one outer point's coverage as "have/inner" for per-row
// table annotations.
func (c Coverage) Point(p int) string {
	return fmt.Sprintf("%d/%d", c.PointHave[p], c.Inner)
}
