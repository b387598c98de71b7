package experiment

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/shard"
)

// shardParamsFast keeps the sharded integration runs quick.
func shardParamsFast() ShardParams {
	return ShardParams{Systems: 4, Seed: 1, GAPopulation: 10, GAGenerations: 6}
}

// TestShardMergeEquivalence pins the tentpole invariant end to end: for
// shard counts 1, 3 and 8, with the shards themselves run at different
// parallelism levels (alternating 1 and NumCPU), merging the shard files
// and re-aggregating yields results deep-equal to the unsharded run of
// every experiment — the cells are location-independent and the payloads
// round-trip losslessly through the file format.
func TestShardMergeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := shardParamsFast()
	rc := p.Context(0)
	names := []string{ExpFig5, ExpFig6, ExpFig7, ExpMotivation, ExpAblation, ExpMultiDevice}
	ref := map[string]Result{}
	for _, name := range names {
		res, err := Run(name, rc)
		if err != nil {
			t.Fatal(err)
		}
		ref[name] = res
	}

	for _, n := range []int{1, 3, 8} {
		files := make([]*shard.File, n)
		for i := 0; i < n; i++ {
			// Alternate the per-shard parallelism: the merged result must
			// not depend on any shard's worker count.
			par := 1
			if i%2 == 1 {
				par = runtime.NumCPU()
			}
			f, err := RunShard(ExpAll, p, par, n, i)
			if err != nil {
				t.Fatalf("N=%d shard %d: %v", n, i, err)
			}
			// Round-trip through the encoded form, as a real multi-process
			// run would.
			data, err := f.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if files[i], err = shard.Decode(data); err != nil {
				t.Fatal(err)
			}
		}
		// Merge in reversed order: file order must not matter.
		rev := make([]*shard.File, n)
		for i := range files {
			rev[n-1-i] = files[i]
		}
		merged, err := shard.Merge(rev)
		if err != nil {
			t.Fatalf("N=%d: merge: %v", n, err)
		}
		byName := map[string]shard.Run{}
		for _, r := range merged.Runs {
			byName[r.Experiment] = r
		}
		if want := len(ReproducibleGridExperiments()); len(byName) != want {
			t.Fatalf("N=%d: merged %d runs, want %d: %v", n, len(byName), want, Names())
		}

		for _, name := range names {
			if got, err := FromCells(name, rc, byName[name].Cells); err != nil || !reflect.DeepEqual(ref[name], got) {
				t.Errorf("N=%d: %s differs from unsharded (err=%v)", n, name, err)
			}
		}
		// Figures 6 and 7 share one cell grid: each run's cells must
		// rebuild the other figure too.
		for _, pair := range [][2]string{{ExpFig6, ExpFig7}, {ExpFig7, ExpFig6}} {
			cells, other := byName[pair[0]].Cells, pair[1]
			if got, err := FromCells(other, rc, cells); err != nil || !reflect.DeepEqual(ref[other], got) {
				t.Errorf("N=%d: %s from %s cells differs from unsharded (err=%v)", n, other, pair[0], err)
			}
		}
	}
}

// TestShardFileBytesAreDeterministic: the same shard evaluated twice
// (at different parallelism) encodes to identical bytes — the property
// that lets CI diff merged output against the unsharded run.
func TestShardFileBytesAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := shardParamsFast()
	a, err := RunShard(ExpMultiDevice, p, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShard(ExpMultiDevice, p, runtime.NumCPU(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	da, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Error("shard bytes depend on parallelism")
	}
}

func TestRunShardValidation(t *testing.T) {
	p := shardParamsFast()
	if _, err := RunShard("bogus", p, 1, 3, 0); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("bogus selection: %v", err)
	}
	if _, err := RunShard(ExpTable1, p, 1, 3, 0); err == nil || !strings.Contains(err.Error(), "no grid") {
		t.Errorf("table1 selection: %v", err)
	}
	if _, err := RunShard(ExpFig5, p, 1, 0, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := RunShard(ExpFig5, p, 1, 3, 3); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestFromCellsRejectsBadSets(t *testing.T) {
	rc := ShardParams{Seed: 1, MotivationWrites: 10}.Context(0)
	cells, _, err := RunCells(ExpMotivation, rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	if _, err := FromCells(ExpMotivation, rc, cells[:1]); err == nil {
		t.Error("incomplete cell set accepted")
	}
	dup := []shard.Cell{cells[0], cells[0]}
	if _, err := FromCells(ExpMotivation, rc, dup); err == nil {
		t.Error("duplicate cell accepted")
	}
	oob := []shard.Cell{cells[0], cells[1]}
	oob[1].System = 7
	if _, err := FromCells(ExpMotivation, rc, oob); err == nil {
		t.Error("out-of-range cell accepted")
	}
	bad := []shard.Cell{cells[0], cells[1]}
	bad[1].Data = []byte(`{"report":`)
	if _, err := FromCells(ExpMotivation, rc, bad); err == nil {
		t.Error("corrupt payload accepted")
	}
}

// TestShardParamsSpellingsMerge: shards of the same run must merge even
// when produced from different spellings of the defaults (the CLI passes
// its flag defaults explicitly; library callers leave fields zero) —
// RunShard records normalised params, and merge compares the bytes.
func TestShardParamsSpellingsMerge(t *testing.T) {
	explicit := ShardParams{Systems: 3, Seed: 1, AblationU: 0.6, MultiDeviceU: 0.8,
		MultiDeviceCounts: []int{1, 2, 4, 8}, MotivationWrites: DefaultMotivation().Writes}
	zeroed := ShardParams{Systems: 3, Seed: 1}
	f0, err := RunShard(ExpMultiDevice, explicit, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := RunShard(ExpMultiDevice, zeroed, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := shard.Merge([]*shard.File{f0, f1})
	if err != nil {
		t.Fatalf("equivalent spellings refused to merge: %v", err)
	}
	if got := len(merged.Runs[0].Cells); got != merged.Runs[0].Grid.Cells() {
		t.Errorf("merged cells = %d", got)
	}
}

// TestShardParamsResolution pins the params → configuration mapping merge
// relies on.
func TestShardParamsResolution(t *testing.T) {
	var p ShardParams
	p.Seed = 42
	cfg := p.Config()
	if cfg.Systems != Default().Systems || cfg.Seed != 42 {
		t.Errorf("zero params resolved to %+v", cfg)
	}
	if u := p.ResolvedAblationU(); u != 0.6 {
		t.Errorf("ablation u = %g", u)
	}
	if u, counts := p.ResolvedMultiDevice(); u != 0.8 || len(counts) != 4 {
		t.Errorf("multidevice = %g %v", u, counts)
	}
	if m := p.Motivation(); m.Seed != 42 || m.Writes != DefaultMotivation().Writes {
		t.Errorf("motivation = %+v", m)
	}

	p = ShardParams{PaperScale: true, Systems: 7, GAPopulation: 11, GAGenerations: 13, MotivationWrites: 5}
	cfg = p.Config()
	if cfg.Systems != 7 || cfg.GA.Population != 11 || cfg.GA.Generations != 13 {
		t.Errorf("override params resolved to %+v", cfg)
	}
	if m := p.Motivation(); m.Writes != 5 {
		t.Errorf("motivation writes = %d", m.Writes)
	}
}
