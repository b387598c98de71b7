package experiment

import (
	"reflect"
	"testing"

	"repro/internal/shard"
)

// partialSubset picks the cells a subset of round-robin shards owns, as a
// partial merge over those shard files would deliver them.
func partialSubset(cells []shard.Cell, g shard.Grid, shards int, present ...int) []shard.Cell {
	in := make(map[int]bool)
	for _, i := range present {
		in[i] = true
	}
	var out []shard.Cell
	for _, c := range cells {
		if in[(c.Point*g.Systems+c.System)%shards] {
			out = append(out, c)
		}
	}
	return out
}

// TestPartialAggregatorsConvergeToComplete is the experiment-layer half of
// the streaming invariant: aggregating the complete cell set through the
// partial path is deep-equal to the complete FromCells path, and strict
// subsets report exact coverage.
func TestPartialAggregatorsConvergeToComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rc := shardParamsFast().Context(0)
	// complete runs name's full grid and checks that the partial path
	// over every cell equals FromCells; it returns the cells and grid.
	complete := func(t *testing.T, name string) ([]shard.Cell, shard.Grid) {
		t.Helper()
		cells, g, err := RunCells(name, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := FromCells(name, rc, cells)
		if err != nil {
			t.Fatal(err)
		}
		got, cov, err := FromCellsPartial(name, rc, cells)
		if err != nil || !cov.Complete() || !reflect.DeepEqual(ref, got) {
			t.Fatalf("complete partial differs (cov=%v, err=%v)", cov, err)
		}
		return cells, g
	}

	t.Run("fig5", func(t *testing.T) {
		cells, g := complete(t, ExpFig5)
		sub := partialSubset(cells, g, 3, 0, 2)
		out, cov, err := FromCellsPartial(ExpFig5, rc, sub)
		if err != nil {
			t.Fatal(err)
		}
		res := out.(*Fig5Result)
		if cov.Complete() || cov.Have != len(sub) || cov.Total != g.Cells() {
			t.Fatalf("coverage = %+v for %d of %d cells", cov, len(sub), g.Cells())
		}
		havePoints := 0
		for p := range cov.PointHave {
			havePoints += cov.PointHave[p]
		}
		if havePoints != cov.Have {
			t.Fatalf("per-point coverage sums to %d, want %d", havePoints, cov.Have)
		}
		// Every rate must be an honest estimate over the present systems.
		for pi, point := range res.Points {
			for _, m := range Fig5Methods {
				if tr := point.Rates[m].Trials; tr != cov.PointHave[pi] {
					t.Fatalf("point %d method %s trials = %d, want %d", pi, m, tr, cov.PointHave[pi])
				}
			}
		}
	})

	t.Run("figq", func(t *testing.T) {
		cells, g := complete(t, ExpFig6)
		complete(t, ExpFig7)
		sub := partialSubset(cells, g, 4, 1)
		out, cov, err := FromCellsPartial(ExpFig6, rc, sub)
		if err != nil || cov.Complete() || cov.Have != len(sub) {
			t.Fatalf("subset coverage = %+v, err=%v", cov, err)
		}
		psi := out.(*FigQResult)
		for pi, point := range psi.Points {
			n := 0
			for _, m := range FigQMethods {
				n += point.N[m]
			}
			if n > len(FigQMethods)*cov.PointHave[pi] {
				t.Fatalf("point %d samples %d exceed present cells %d", pi, n, cov.PointHave[pi])
			}
		}
	})

	t.Run("motivation", func(t *testing.T) {
		cells, g := complete(t, ExpMotivation)
		half := partialSubset(cells, g, 2, 0)
		res, cov, err := FromCellsPartial(ExpMotivation, rc, half)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil || cov.Complete() || cov.Have != 1 {
			t.Fatalf("half cover yielded result=%v coverage=%+v", res, cov)
		}
	})

	t.Run("ablation", func(t *testing.T) {
		cells, g := complete(t, ExpAblation)
		sub := partialSubset(cells, g, 2, 1)
		res, cov, err := FromCellsPartial(ExpAblation, rc, sub)
		if err != nil || cov.Complete() {
			t.Fatalf("subset coverage = %+v, err=%v", cov, err)
		}
		for _, r := range res.(AblationStudy) {
			if r.Schedulable.Trials != cov.Have {
				t.Fatalf("variant %q trials = %d, want %d", r.Name, r.Schedulable.Trials, cov.Have)
			}
		}
	})

	t.Run("multidevice", func(t *testing.T) {
		cells, g := complete(t, ExpMultiDevice)
		sub := partialSubset(cells, g, 3, 0)
		res, cov, err := FromCellsPartial(ExpMultiDevice, rc, sub)
		if err != nil || cov.Complete() {
			t.Fatalf("subset coverage = %+v, err=%v", cov, err)
		}
		for di, r := range res.(MultiDeviceResult) {
			if r.Schedulable.Trials != cov.PointHave[di] {
				t.Fatalf("point %d trials = %d, want %d", di, r.Schedulable.Trials, cov.PointHave[di])
			}
		}
	})
}

func TestPartialAggregatorsRejectBadSets(t *testing.T) {
	rc := ShardParams{Seed: 1, MotivationWrites: 10}.Context(0)
	cells, _, err := RunCells(ExpMotivation, rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FromCellsPartial(ExpMotivation, rc, []shard.Cell{cells[0], cells[0]}); err == nil {
		t.Error("duplicate cell accepted")
	}
	oob := cells[0]
	oob.System = 7
	if _, _, err := FromCellsPartial(ExpMotivation, rc, []shard.Cell{oob}); err == nil {
		t.Error("out-of-range cell accepted")
	}
	bad := cells[0]
	bad.Data = []byte(`{"report":`)
	if _, _, err := FromCellsPartial(ExpMotivation, rc, []shard.Cell{bad}); err == nil {
		t.Error("corrupt payload accepted")
	}
	// The empty subset is a valid (if useless) partial cover.
	if _, cov, err := FromCellsPartial(ExpMotivation, rc, nil); err != nil || cov.Have != 0 {
		t.Errorf("empty subset: cov=%+v err=%v", cov, err)
	}
}

func TestCoverageRendering(t *testing.T) {
	c := Coverage{Have: 40, Total: 60, PointHave: []int{4, 0, 6}, Inner: 6}
	if c.Complete() || c.Fraction() < 0.66 || c.Fraction() > 0.67 {
		t.Errorf("coverage = %+v", c)
	}
	if got := c.String(); got != "40/60 cells (66.7%)" {
		t.Errorf("String() = %q", got)
	}
	if got := c.Point(1); got != "0/6" {
		t.Errorf("Point(1) = %q", got)
	}
	full := Coverage{Have: 0, Total: 0}
	if !full.Complete() || full.Fraction() != 1 {
		t.Errorf("empty grid coverage = %+v", full)
	}
}
