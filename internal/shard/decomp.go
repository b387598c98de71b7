package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Decomposition: the pluggable policy that assigns every cell of a
// selection's grids to one of a number of parts. The classic round-robin
// (point·systems + system) mod shards split is one implementation; the
// cost-packed split used by balanced dispatch is another. A decomposition
// only decides *placement* — cells are location-independent by
// construction, so the merged cover is byte-identical to the unsharded
// run for every decomposition.

// Decomposition assigns each global cell index of each run's grid to a
// part in [0, parts).
type Decomposition interface {
	// Name identifies the decomposition ("roundrobin", "cost").
	Name() string
	// Split returns assign[ri][g] = part for run ri's global cell index
	// g, with 0 <= part < parts. Every cell is assigned; parts may end
	// up empty (a valid degenerate split).
	Split(grids []Grid, parts int) ([][]int, error)
}

// RoundRobin is the classic decomposition: global cell index g of every
// run goes to part g mod parts — exactly the (Shards, Index) ownership
// rule of regular shard files.
type RoundRobin struct{}

// Name implements Decomposition.
func (RoundRobin) Name() string { return "roundrobin" }

// Split implements Decomposition.
func (RoundRobin) Split(grids []Grid, parts int) ([][]int, error) {
	if parts < 1 {
		return nil, fmt.Errorf("shard: decomposition needs >= 1 part, got %d", parts)
	}
	assign := make([][]int, len(grids))
	for ri, g := range grids {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		a := make([]int, g.Cells())
		for i := range a {
			a[i] = i % parts
		}
		assign[ri] = a
	}
	return assign, nil
}

// CostPacked partitions cells into contiguous blocks of near-equal
// predicted cost: walking runs and cells in canonical grid order, cell c
// with cumulative preceding cost w goes to part floor(w·parts/total).
// With uniform costs this degenerates to equal contiguous chunks. The
// split is deterministic in its inputs, so a re-plan over the same cost
// model reproduces the same batches.
type CostPacked struct {
	// Costs[ri][g] is the predicted cost of run ri's global cell index
	// g, in arbitrary units (only ratios matter). Must be non-negative
	// and shaped exactly like the grids passed to Split. An all-zero
	// model degenerates to uniform costs.
	Costs [][]float64
}

// Name implements Decomposition.
func (CostPacked) Name() string { return "cost" }

// Split implements Decomposition.
func (d CostPacked) Split(grids []Grid, parts int) ([][]int, error) {
	if parts < 1 {
		return nil, fmt.Errorf("shard: decomposition needs >= 1 part, got %d", parts)
	}
	if len(d.Costs) != len(grids) {
		return nil, fmt.Errorf("shard: cost model covers %d runs, grids have %d", len(d.Costs), len(grids))
	}
	total := 0.0
	for ri, g := range grids {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		if len(d.Costs[ri]) != g.Cells() {
			return nil, fmt.Errorf("shard: cost model run %d covers %d cells, grid holds %d",
				ri, len(d.Costs[ri]), g.Cells())
		}
		for gi, c := range d.Costs[ri] {
			if c < 0 {
				return nil, fmt.Errorf("shard: negative cost %v for run %d cell %d", c, ri, gi)
			}
			total += c
		}
	}
	uniform := total == 0
	if uniform {
		for _, g := range grids {
			total += float64(g.Cells())
		}
	}
	assign := make([][]int, len(grids))
	cum := 0.0
	for ri, g := range grids {
		a := make([]int, g.Cells())
		for gi := range a {
			part := int(cum * float64(parts) / total)
			if part >= parts {
				part = parts - 1
			}
			a[gi] = part
			if uniform {
				cum++
			} else {
				cum += d.Costs[ri][gi]
			}
		}
		assign[ri] = a
	}
	return assign, nil
}

// FormatRanges renders a set of global cell indices compactly:
// "0-4,7,9-12". The indices are de-duplicated and sorted; an empty set
// renders as "".
func FormatRanges(cells []int) string {
	if len(cells) == 0 {
		return ""
	}
	sorted := append([]int(nil), cells...)
	sort.Ints(sorted)
	var b strings.Builder
	lo, hi := sorted[0], sorted[0]
	flush := func() {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if lo == hi {
			fmt.Fprintf(&b, "%d", lo)
		} else {
			fmt.Fprintf(&b, "%d-%d", lo, hi)
		}
	}
	for _, c := range sorted[1:] {
		if c == hi || c == hi+1 {
			hi = c
			continue
		}
		flush()
		lo, hi = c, c
	}
	flush()
	return b.String()
}

// MaxCells caps how many cell indices one cell set (ParseRanges) or one
// whole cell spec (ParseCellSpec, over all its runs) may name. The ranges
// are counted against it before any index is expanded, so a spec such as
// "fig5=0-99999999999" — on the command line, in a journal or in a
// coordinator lease — is rejected without allocating for its cells. The
// cap is over twenty times the paper-scale "all" sweep (45 002 cells),
// and a batch never holds more cells than its selection's grids.
const MaxCells = 1 << 20

// ParseRanges parses FormatRanges' syntax back into a strictly ascending
// index slice. "" parses to an empty set; a set naming more than MaxCells
// indices is an error.
func ParseRanges(s string) ([]int, error) {
	spans, err := parseSpans(s, MaxCells)
	if err != nil {
		return nil, err
	}
	return spans.expand(), nil
}

// spans are parsed cell ranges, each inclusive, with their cell count.
type spans struct {
	lo, hi []int
	total  int
}

// parseSpans parses and counts s's ranges without expanding them,
// rejecting a set of more than limit cells.
func parseSpans(s string, limit int) (spans, error) {
	var sp spans
	if s == "" {
		return sp, nil
	}
	prev := -1
	for _, part := range strings.Split(s, ",") {
		lo, hi := part, part
		if dash := strings.IndexByte(part, '-'); dash > 0 {
			lo, hi = part[:dash], part[dash+1:]
		}
		a, err := strconv.Atoi(lo)
		if err != nil {
			return sp, fmt.Errorf("shard: cell range %q: %w", part, err)
		}
		b, err := strconv.Atoi(hi)
		if err != nil {
			return sp, fmt.Errorf("shard: cell range %q: %w", part, err)
		}
		if a < 0 || b < a {
			return sp, fmt.Errorf("shard: cell range %q: bad bounds", part)
		}
		if a <= prev {
			return sp, fmt.Errorf("shard: cell ranges not strictly ascending at %q", part)
		}
		// b-a+1 cells, compared as b-a so that no range can overflow
		// the count.
		if b-a >= limit-sp.total {
			return sp, fmt.Errorf("shard: cell ranges name more than %d cells (at %q)", MaxCells, part)
		}
		sp.lo, sp.hi, sp.total = append(sp.lo, a), append(sp.hi, b), sp.total+b-a+1
		prev = b
	}
	return sp, nil
}

// expand lists every index the spans cover, in order (nil for none).
func (sp spans) expand() []int {
	if sp.total == 0 {
		return nil
	}
	cells := make([]int, 0, sp.total)
	for i, lo := range sp.lo {
		for c := lo; c <= sp.hi[i]; c++ {
			cells = append(cells, c)
		}
	}
	return cells
}

// FormatCellSpec renders a batch's per-run cell sets as one string:
// "fig5=0-4,9;fig6=1,3-17". names and cells are parallel, in the
// selection's canonical run order; a run with no cells renders as
// "name=". The spec is the wire form of a batch — the -cells CLI flag
// and the journal's batch events both carry it.
func FormatCellSpec(names []string, cells [][]int) (string, error) {
	if len(names) != len(cells) {
		return "", fmt.Errorf("shard: cell spec: %d names for %d cell sets", len(names), len(cells))
	}
	parts := make([]string, len(names))
	for i, name := range names {
		if name == "" || strings.ContainsAny(name, "=;") {
			return "", fmt.Errorf("shard: cell spec: bad run name %q", name)
		}
		parts[i] = name + "=" + FormatRanges(cells[i])
	}
	return strings.Join(parts, ";"), nil
}

// ParseCellSpec parses FormatCellSpec's syntax back into run names and
// strictly ascending per-run cell sets. A spec naming more than MaxCells
// cells over all its runs is an error.
func ParseCellSpec(spec string) (names []string, cells [][]int, err error) {
	if spec == "" {
		return nil, nil, fmt.Errorf("shard: empty cell spec")
	}
	// Count every run's ranges against one budget before expanding any.
	budget := MaxCells
	var sets []spans
	for _, part := range strings.Split(spec, ";") {
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return nil, nil, fmt.Errorf("shard: cell spec entry %q: want name=ranges", part)
		}
		sp, err := parseSpans(part[eq+1:], budget)
		if err != nil {
			return nil, nil, err
		}
		budget -= sp.total
		names = append(names, part[:eq])
		sets = append(sets, sp)
	}
	for _, sp := range sets {
		cells = append(cells, sp.expand())
	}
	return names, cells, nil
}
