package main

// Provisional rendering of an incomplete shard cover (merge -partial).
// render (main.go) draws an incomplete cover through the same loop as a
// complete one; this file holds only what the gaps add: the overall
// banner, a line naming each experiment's gap, and a per-point "cells"
// column in the tables and CSVs. Every figure is drawn from the cells
// that exist, and a run whose own grid happens to be fully covered
// renders exactly as the final output will. A complete cover adds none
// of this, which is what keeps the finished sweep byte-identical to the
// unsharded run.

import (
	"fmt"
	"strings"

	"repro/internal/experiment"
	"repro/internal/shard"
)

// shardList renders shard indices as " 2 5" for banner lines.
func shardList(idxs []int) string {
	var b strings.Builder
	for _, i := range idxs {
		fmt.Fprintf(&b, " %d", i)
	}
	return b.String()
}

// printPartialBanner prints the banner above an incomplete cover's
// provisional results.
func printPartialBanner(cover *shard.PartialCover) {
	fmt.Printf("PARTIAL results: %d/%d shards present (missing shards:%s); %d/%d cells (%.1f%%)\n",
		len(cover.Present), cover.Shards, shardList(cover.Missing),
		cover.CellsHave(), cover.CellsTotal(), 100*cover.Fraction())
	fmt.Printf("Provisional output: every value is computed over the cells present; the\n")
	fmt.Printf("complete merge of all %d shards is byte-identical to the unsharded run.\n\n", cover.Shards)
}

// printGap prints the line naming an experiment's gap: above its
// provisional result, or — when res is nil, as the experiment has no
// provisional result for the subset — in the result's place.
func printGap(e experiment.Experiment, res experiment.Result, cov experiment.Coverage, missing []int) {
	sk, skips := e.(experiment.PartialSkipper)
	switch {
	case res != nil:
		fmt.Printf("PARTIAL: %s; missing shards:%s\n\n", cov, shardList(missing))
	case skips:
		fmt.Print(sk.PartialSkipNote(cov, shardList(missing)))
	default:
		fmt.Printf("PARTIAL: %s; missing shards:%s — no provisional result for an incomplete grid.\n\n",
			cov, shardList(missing))
	}
}

// coverageColumn appends a per-point "cells" column to a result table, so
// every row states how many of its systems it was averaged over.
func coverageColumn(headers []string, rows [][]string, cov experiment.Coverage) ([]string, [][]string) {
	headers = append(headers, "cells")
	for i := range rows {
		rows[i] = append(rows[i], cov.Point(i))
	}
	return headers, rows
}
