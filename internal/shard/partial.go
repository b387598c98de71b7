package shard

import "fmt"

// Streaming/partial merge: MergePartial aggregates any incomplete but
// mutually-consistent subset of a run's shard files into a provisional
// single-shard-equivalent file, tracking exactly which cells the subset
// covers. The cells it does hold are byte-identical to the ones the full
// merge holds — a partial merge never recomputes or re-orders anything —
// so the moment the last shard arrives, MergePartial degenerates into
// Merge and the output byte-equals the complete run's.

// PartialInfo marks a file written from an incomplete cover and records
// its provenance: which shards of the original decomposition contributed.
// The field order is part of the versioned format (docs/SHARD_FORMAT.md).
type PartialInfo struct {
	// Shards is the original decomposition's shard count N.
	Shards int `json:"shards"`
	// Present lists the contributing shard indices, strictly ascending.
	// It is always a strict subset of [0, N): a complete cover is written
	// without a PartialInfo at all.
	Present []int `json:"present_shards"`
}

// validate rejects malformed partial headers before any ownership or
// allocation decision is derived from them.
func (pi *PartialInfo) validate() error {
	if pi.Shards < 1 {
		return fmt.Errorf("shard: partial header shard count %d, need >= 1", pi.Shards)
	}
	if len(pi.Present) == 0 {
		return fmt.Errorf("shard: partial header lists no present shards")
	}
	if len(pi.Present) >= pi.Shards {
		return fmt.Errorf("shard: partial header lists %d of %d shards — a complete cover must not be partial",
			len(pi.Present), pi.Shards)
	}
	prev := -1
	for _, idx := range pi.Present {
		if idx < 0 || idx >= pi.Shards {
			return fmt.Errorf("shard: partial header shard index %d outside [0,%d)", idx, pi.Shards)
		}
		if idx <= prev {
			return fmt.Errorf("shard: partial header present shards not strictly ascending at %d", idx)
		}
		prev = idx
	}
	return nil
}

// Missing returns the absent shard indices, ascending.
func (pi *PartialInfo) Missing() []int {
	present := make(map[int]bool, len(pi.Present))
	for _, idx := range pi.Present {
		present[idx] = true
	}
	var missing []int
	for i := 0; i < pi.Shards; i++ {
		if !present[i] {
			missing = append(missing, i)
		}
	}
	return missing
}

// RunCoverage reports how much of one run's grid a partial cover holds.
type RunCoverage struct {
	Experiment string
	Grid       Grid
	// Have counts the cells present; the full grid holds Grid.Cells().
	Have int
}

// Total returns the run's full cell count.
func (c RunCoverage) Total() int { return c.Grid.Cells() }

// Complete reports whether the run's grid is fully covered.
func (c RunCoverage) Complete() bool { return c.Have == c.Total() }

// PartialCover is the result of merging an arbitrary consistent subset of
// a run's shard files: the provisional single-shard-equivalent file plus
// exact coverage accounting.
type PartialCover struct {
	// File holds the merged cells in grid order — exactly the bytes the
	// full merge would hold for them. Its Partial header is set if and
	// only if the cover is incomplete; a complete cover's File is
	// byte-identical to Merge's output.
	File *File
	// Shards is the original decomposition's shard count N.
	Shards int
	// Present and Missing partition [0, N) into the shard indices the
	// cover holds and lacks, each ascending.
	Present, Missing []int
	// Runs reports per-run coverage, in the files' canonical run order.
	Runs []RunCoverage
}

// Complete reports whether every shard of the decomposition is present.
func (p *PartialCover) Complete() bool { return len(p.Missing) == 0 }

// CellsHave returns the total number of cells the cover holds.
func (p *PartialCover) CellsHave() int {
	n := 0
	for _, r := range p.Runs {
		n += r.Have
	}
	return n
}

// CellsTotal returns the total number of cells of the full run.
func (p *PartialCover) CellsTotal() int {
	n := 0
	for _, r := range p.Runs {
		n += r.Total()
	}
	return n
}

// Fraction returns the covered fraction of the run's cells, in [0, 1].
func (p *PartialCover) Fraction() float64 {
	total := p.CellsTotal()
	if total == 0 {
		return 1
	}
	return float64(p.CellsHave()) / float64(total)
}
