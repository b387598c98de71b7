package iosched_test

import (
	"bytes"
	"fmt"
	"log"

	iosched "repro"
)

// ExampleMergeShardFilesPartial renders provisional results from an
// incomplete shard set — two of three shards — and then grows the cover
// to completion: the partial merge reports exactly what is missing, the
// partial aggregation is an honest estimate over the present cells, and
// the completed cover is byte-identical to the strict full merge.
func ExampleMergeShardFilesPartial() {
	params := iosched.ShardParams{Systems: 4, Seed: 1, GAPopulation: 10, GAGenerations: 6}
	files := make([]*iosched.ShardFile, 3)
	for i := range files {
		f, err := iosched.RunExperimentShard("fig5", params, 1, 3, i)
		if err != nil {
			log.Fatal(err)
		}
		files[i] = f
	}

	// Shard 1 has not arrived yet: merge what exists.
	cover, err := iosched.MergeShardFilesPartial([]*iosched.ShardFile{files[0], files[2]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partial cover: %d/%d cells, missing shards %v\n",
		cover.CellsHave(), cover.CellsTotal(), cover.Missing)

	// Provisional Figure 5 over the present cells, with per-point coverage.
	res, cov, err := iosched.ExperimentFromCellsPartial("fig5", params, cover.File.Runs[0].Cells)
	if err != nil {
		log.Fatal(err)
	}
	_, rows := res.Rows() // one row per utilisation point
	fmt.Printf("provisional points: %d, first point covers %s systems\n",
		len(rows), cov.Point(0))

	// The last shard arrives: the grown cover is complete and
	// byte-identical to the strict merge of all three files.
	grown, err := iosched.MergeShardFilesPartial([]*iosched.ShardFile{cover.File, files[1]})
	if err != nil {
		log.Fatal(err)
	}
	full, err := iosched.MergeShardFiles(files)
	if err != nil {
		log.Fatal(err)
	}
	a, _ := grown.File.Encode()
	b, _ := full.Encode()
	fmt.Printf("complete: %v, byte-identical to the full merge: %v\n",
		grown.Complete(), bytes.Equal(a, b))
	// Output:
	// partial cover: 40/60 cells, missing shards [1]
	// provisional points: 15, first point covers 3/4 systems
	// complete: true, byte-identical to the full merge: true
}
