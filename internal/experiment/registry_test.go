package experiment

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/shard"
)

// TestRegistryCanonicalOrder pins the registration order the shard
// files, the CLI's "all" selection and the listings all follow. The
// built-ins register from registry.go's init; jitter and tailq append
// themselves from their own files' inits (file order within the
// package: replayjitter.go, then tailq.go), which is exactly the
// extension contract docs/EXPERIMENTS.md documents.
func TestRegistryCanonicalOrder(t *testing.T) {
	want := []string{ExpFig5, ExpFig6, ExpFig7, ExpTable1, ExpMotivation, ExpAblation, ExpMultiDevice, ExpJitter, ExpTailQ}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	// The "all" selection is the grid experiments minus the
	// non-reproducible ones: jitter only runs when named.
	wantAll := []string{ExpFig5, ExpFig6, ExpFig7, ExpMotivation, ExpAblation, ExpMultiDevice, ExpTailQ}
	if got := ReproducibleGridExperiments(); !reflect.DeepEqual(got, wantAll) {
		t.Fatalf("ReproducibleGridExperiments() = %v, want %v", got, wantAll)
	}
	if got, err := SelectionRuns(ExpAll); err != nil || !reflect.DeepEqual(got, wantAll) {
		t.Fatalf("SelectionRuns(all) = %v, %v, want %v", got, err, wantAll)
	}
	for _, name := range want {
		e, _ := Lookup(name)
		if got, wantRepro := Reproducible(e), name != ExpJitter; got != wantRepro {
			t.Errorf("Reproducible(%s) = %v, want %v", name, got, wantRepro)
		}
	}
	if SelectionReproducible(ExpJitter) || !SelectionReproducible(ExpAll) || !SelectionReproducible(ExpTailQ) {
		t.Error("SelectionReproducible misclassifies a selection")
	}
	for _, name := range want {
		e, ok := Lookup(name)
		if !ok || e.Name() != name {
			t.Errorf("Lookup(%q) = %v, %v", name, e, ok)
		}
		if e.Describe() == "" {
			t.Errorf("%s has no description", name)
		}
	}
	if _, ok := Lookup("bogus"); ok {
		t.Error("Lookup accepted an unregistered name")
	}
}

// mustJSON renders a result for byte comparison; registry equivalence is
// asserted on encoded bytes, not DeepEqual, because byte identity is the
// contract the CLI end-to-end diffs rely on.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTailQRegistryOnly: the new experiment is reachable exclusively
// through the registry — run, shard, merge, partial — with results
// identical on every path, proving a study can be added with zero edits
// to the shard, dispatch or CLI plumbing.
func TestTailQRegistryOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := ShardParams{Systems: 5, Seed: 3}
	rc := p.Context(1)
	ref, err := Run(ExpTailQ, rc)
	if err != nil {
		t.Fatal(err)
	}
	res := ref.(*TailQResult)
	if len(res.Points) != len(Fig5Utils()) {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.Schedulable.Trials != 5 {
			t.Errorf("U=%.2f trials = %d", pt.U, pt.Schedulable.Trials)
		}
		if pt.Jobs > 0 {
			if pt.Exact > pt.Ge90+1e-12 || pt.Ge90 > pt.Ge50+1e-12 {
				t.Errorf("U=%.2f bands not cumulative: exact=%g ge90=%g ge50=%g", pt.U, pt.Exact, pt.Ge90, pt.Ge50)
			}
			if pt.MinUps < 0 || pt.MinUps > 1 || pt.MeanUps < 0 || pt.MeanUps > 1+1e-12 {
				t.Errorf("U=%.2f quality out of range: mean=%g min=%g", pt.U, pt.MeanUps, pt.MinUps)
			}
		}
	}
	// The tail degrades with utilisation: the exact fraction at the top of
	// the sweep must not beat the bottom.
	if first, last := res.Points[0], res.Points[len(res.Points)-1]; last.Exact > first.Exact {
		t.Errorf("exact fraction should not improve with U: %g@%.2f vs %g@%.2f",
			first.Exact, first.U, last.Exact, last.U)
	}

	// Sharded: 3 shards at mixed parallelism, merged, re-aggregated.
	files := make([]*shard.File, 3)
	for i := range files {
		par := 1
		if i%2 == 1 {
			par = runtime.NumCPU()
		}
		f, err := RunShard(ExpTailQ, p, par, 3, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Runs) != 1 || f.Runs[0].Experiment != ExpTailQ {
			t.Fatalf("shard %d runs = %+v", i, f.Runs)
		}
		if f.Runs[0].PayloadVersion != (tailqExperiment{}).Codec().Version {
			t.Fatalf("shard %d payload version = %d", i, f.Runs[0].PayloadVersion)
		}
		files[i] = f
	}
	merged, err := shard.Merge(files)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromCells(ExpTailQ, rc, merged.Runs[0].Cells)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, ref) != mustJSON(t, got) {
		t.Error("merged tailq differs from in-process run")
	}

	// Partial: the complete set through the partial path equals the full
	// result; a strict subset reports exact coverage.
	full, cov, err := FromCellsPartial(ExpTailQ, rc, merged.Runs[0].Cells)
	if err != nil || !cov.Complete() || mustJSON(t, full) != mustJSON(t, ref) {
		t.Fatalf("complete partial differs (cov=%v err=%v)", cov, err)
	}
	sub := files[0].Runs[0].Cells
	_, cov, err = FromCellsPartial(ExpTailQ, rc, sub)
	if err != nil || cov.Complete() || cov.Have != len(sub) {
		t.Fatalf("subset coverage = %+v err=%v", cov, err)
	}
}

// TestValidateRuns pins the registry-driven shard-file validation the
// dispatch driver relies on: unknown experiments, wrong grids and
// incompatible payload versions are all rejected with named errors.
func TestValidateRuns(t *testing.T) {
	p := ShardParams{Systems: 3, Seed: 1}
	f, err := RunShard(ExpMultiDevice, p, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRuns(f, p); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	// Version 0 (pre-recording files) is accepted.
	old := *f
	old.Runs = append([]shard.Run(nil), f.Runs...)
	old.Runs[0].PayloadVersion = 0
	if err := ValidateRuns(&old, p); err != nil {
		t.Errorf("version-0 file rejected: %v", err)
	}
	bad := *f
	bad.Runs = append([]shard.Run(nil), f.Runs...)
	bad.Runs[0].PayloadVersion = 99
	err = ValidateRuns(&bad, p)
	if err == nil || !strings.Contains(err.Error(), "payload version 99") {
		t.Errorf("incompatible payload version accepted: %v", err)
	}
	unknown := *f
	unknown.Runs = append([]shard.Run(nil), f.Runs...)
	unknown.Runs[0].Experiment = "bogus"
	if err := ValidateRuns(&unknown, p); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment accepted: %v", err)
	}
	wrongGrid := *f
	wrongGrid.Runs = append([]shard.Run(nil), f.Runs...)
	wrongGrid.Runs[0].Grid = shard.Grid{Points: 9, Systems: 9}
	if err := ValidateRuns(&wrongGrid, p); err == nil || !strings.Contains(err.Error(), "records grid 9x9") {
		t.Errorf("wrong grid accepted: %v", err)
	}
}

// TestNormalisedIsRegistryDriven: Normalised resolves every registered
// defaulter, so two spellings of the same run record byte-equal params —
// including after new experiments register.
func TestNormalisedIsRegistryDriven(t *testing.T) {
	a := ShardParams{Seed: 7}.Normalised()
	b := ShardParams{
		Seed: 7, Systems: Default().Systems,
		GAPopulation: Default().GA.Population, GAGenerations: Default().GA.Generations,
		AblationU: 0.6, MultiDeviceU: 0.8, MultiDeviceCounts: []int{1, 2, 4, 8},
		MotivationWrites: DefaultMotivation().Writes,
	}.Normalised()
	aj, bj := mustJSON(t, a), mustJSON(t, b)
	if aj != bj {
		t.Errorf("spellings normalise differently:\n%s\n%s", aj, bj)
	}
}

// TestSeedSweep runs every reproducible grid experiment at tiny params
// over seeds 1..64 (1..16 under -short): each run must succeed and
// re-aggregate byte-identically from its cells. Seeds 5, 6, 8, 21, 31,
// 37, 39, 40, 43, 49, 60 and 61 are regression cases: the motivation
// experiment once counted a cross-traffic flow that happened to run from
// the I/O source to the device as remote writes.
func TestSeedSweep(t *testing.T) {
	seeds := int64(64)
	if testing.Short() {
		seeds = 16
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rc := ShardParams{Systems: 2, Seed: seed, GAPopulation: 4, GAGenerations: 2, MotivationWrites: 20}.Context(0)
		for _, name := range ReproducibleGridExperiments() {
			res, err := Run(name, rc)
			if err != nil {
				t.Errorf("seed %d: Run(%s): %v", seed, name, err)
				continue
			}
			cells, _, err := RunCells(name, rc, nil)
			if err != nil {
				t.Errorf("seed %d: RunCells(%s): %v", seed, name, err)
				continue
			}
			got, err := FromCells(name, rc, cells)
			if err != nil {
				t.Errorf("seed %d: FromCells(%s): %v", seed, name, err)
				continue
			}
			if mustJSON(t, res) != mustJSON(t, got) {
				t.Errorf("seed %d: %s from cells differs from Run", seed, name)
			}
		}
	}
}
