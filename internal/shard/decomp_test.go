package shard

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

func TestRoundRobinSplitMatchesPlanOwnership(t *testing.T) {
	grids := []Grid{{Points: 3, Systems: 4}, {Points: 5, Systems: 1}}
	for _, parts := range []int{1, 3, 8} {
		assign, err := RoundRobin{}.Split(grids, parts)
		if err != nil {
			t.Fatal(err)
		}
		for ri, g := range grids {
			for gi := 0; gi < g.Cells(); gi++ {
				want := gi % parts
				if assign[ri][gi] != want {
					t.Fatalf("parts=%d run %d cell %d -> %d, want %d", parts, ri, gi, assign[ri][gi], want)
				}
				if !(Plan{Shards: parts, Index: want}).Owns(gi) {
					t.Fatalf("split disagrees with Plan.Owns at cell %d", gi)
				}
			}
		}
	}
	if _, err := (RoundRobin{}).Split(grids, 0); err == nil {
		t.Error("0 parts accepted")
	}
}

func TestCostPackedUniformIsContiguousChunks(t *testing.T) {
	grids := []Grid{{Points: 2, Systems: 6}}
	costs := [][]float64{make([]float64, 12)}
	for i := range costs[0] {
		costs[0][i] = 1
	}
	assign, err := CostPacked{Costs: costs}.Split(grids, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	if !reflect.DeepEqual(assign[0], want) {
		t.Errorf("assign = %v, want %v", assign[0], want)
	}
	// An all-zero model degenerates to the same uniform split.
	zero, err := CostPacked{Costs: [][]float64{make([]float64, 12)}}.Split(grids, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero[0], want) {
		t.Errorf("zero-cost assign = %v, want %v", zero[0], want)
	}
}

func TestCostPackedBalancesSkewedCosts(t *testing.T) {
	// One cell is as expensive as all others combined: a 2-way split must
	// isolate the tail instead of halving the index space.
	grids := []Grid{{Points: 1, Systems: 8}}
	costs := [][]float64{{1, 1, 1, 1, 1, 1, 1, 7}}
	assign, err := CostPacked{Costs: costs}.Split(grids, 2)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, 2)
	for gi, part := range assign[0] {
		if part < 0 || part > 1 {
			t.Fatalf("cell %d assigned to part %d", gi, part)
		}
		if gi > 0 && part < assign[0][gi-1] {
			t.Fatalf("assignment not monotone at cell %d", gi)
		}
		sums[part] += costs[0][gi]
	}
	if sums[0] != 7 || sums[1] != 7 {
		t.Errorf("part cost sums = %v, want [7 7]", sums)
	}
}

func TestCostPackedValidation(t *testing.T) {
	grids := []Grid{{Points: 1, Systems: 3}}
	if _, err := (CostPacked{Costs: [][]float64{{1, 1}}}).Split(grids, 2); err == nil {
		t.Error("short cost row accepted")
	}
	if _, err := (CostPacked{Costs: [][]float64{{1, -1, 1}}}).Split(grids, 2); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := (CostPacked{}).Split(grids, 2); err == nil {
		t.Error("missing cost rows accepted")
	}
	if _, err := (CostPacked{Costs: [][]float64{{1, 1, 1}}}).Split(grids, 0); err == nil {
		t.Error("0 parts accepted")
	}
}

func TestFormatParseRangesRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		cells []int
		want  string
	}{
		{nil, ""},
		{[]int{0}, "0"},
		{[]int{0, 1, 2, 3, 4}, "0-4"},
		{[]int{0, 1, 2, 4, 7, 8}, "0-2,4,7-8"},
		{[]int{9, 3, 3, 0, 1, 2}, "0-3,9"}, // unsorted + duplicate input
	} {
		got := FormatRanges(tc.cells)
		if got != tc.want {
			t.Errorf("FormatRanges(%v) = %q, want %q", tc.cells, got, tc.want)
		}
		parsed, err := ParseRanges(got)
		if err != nil {
			t.Fatalf("ParseRanges(%q): %v", got, err)
		}
		back := FormatRanges(parsed)
		if back != tc.want {
			t.Errorf("round trip %q -> %v -> %q", tc.want, parsed, back)
		}
	}
	for _, bad := range []string{"x", "3-1", "-1", "1,1", "5,3", "1-2,2"} {
		if _, err := ParseRanges(bad); err == nil {
			t.Errorf("ParseRanges(%q) accepted", bad)
		}
	}
}

func TestCellSpecRoundTrip(t *testing.T) {
	names := []string{"fig5", "fig6", "tailq"}
	cells := [][]int{{0, 1, 2, 9}, nil, {4}}
	spec, err := FormatCellSpec(names, cells)
	if err != nil {
		t.Fatal(err)
	}
	if spec != "fig5=0-2,9;fig6=;tailq=4" {
		t.Errorf("spec = %q", spec)
	}
	gotNames, gotCells, err := ParseCellSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotNames, names) {
		t.Errorf("names = %v", gotNames)
	}
	if !reflect.DeepEqual(gotCells, [][]int{{0, 1, 2, 9}, nil, {4}}) {
		t.Errorf("cells = %v", gotCells)
	}
	if _, err := FormatCellSpec(names, cells[:2]); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FormatCellSpec([]string{"a=b"}, [][]int{{1}}); err == nil {
		t.Error("name with '=' accepted")
	}
	for _, bad := range []string{"", "fig5", "=1", "fig5=1;;fig6=2"} {
		if _, _, err := ParseCellSpec(bad); err == nil {
			t.Errorf("ParseCellSpec(%q) accepted", bad)
		}
	}
}

// mkBatch builds a batch file holding the given global cell indices of a
// grid, with the same synthetic payloads mkFile uses.
func mkBatch(t *testing.T, selection string, grid Grid, cells []int, params string) *File {
	t.Helper()
	f := &File{
		Version:   FormatVersion,
		Selection: selection,
		Shards:    1,
		Index:     0,
		Params:    json.RawMessage(params),
		Batch:     &BatchInfo{Cells: [][]int{cells}},
		Runs:      []Run{{Experiment: selection, Grid: grid}},
	}
	for _, g := range cells {
		f.Runs[0].Cells = append(f.Runs[0].Cells, Cell{
			Point:  g / grid.Systems,
			System: g % grid.Systems,
			Seed:   int64(1000 + g),
			Data:   json.RawMessage(fmt.Sprintf(`{"v":%d}`, g)),
		})
	}
	return f
}

func TestMergeBatchesEqualsMerge(t *testing.T) {
	grid := Grid{Points: 3, Systems: 4}
	unsharded := mkFile(t, "fig5", grid, 1, 0, `{"seed":1}`)
	ref, err := unsharded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// An uneven contiguous decomposition: cost-packed shapes look like this.
	batches := []*File{
		mkBatch(t, "fig5", grid, []int{0, 1, 2, 3, 4, 5, 6}, `{"seed":1}`),
		mkBatch(t, "fig5", grid, []int{7}, `{"seed":1}`),
		mkBatch(t, "fig5", grid, []int{8, 9, 10, 11}, `{"seed":1}`),
	}
	merged, dups, err := MergeBatches(batches)
	if err != nil {
		t.Fatal(err)
	}
	if dups != 0 {
		t.Errorf("duplicates = %d, want 0", dups)
	}
	got, err := merged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Errorf("batch merge is not byte-identical to the unsharded file")
	}
}

func TestMergeBatchesDiscardsDuplicatesFirstWins(t *testing.T) {
	grid := Grid{Points: 1, Systems: 4}
	a := mkBatch(t, "fig5", grid, []int{0, 1, 2}, `{"seed":1}`)
	b := mkBatch(t, "fig5", grid, []int{1, 2, 3}, `{"seed":1}`)
	// The loser's copies differ; first-completion-wins must keep a's.
	b.Runs[0].Cells[0].Data = json.RawMessage(`{"v":999}`)
	merged, dups, err := MergeBatches([]*File{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if dups != 2 {
		t.Errorf("duplicates = %d, want 2", dups)
	}
	if got, _ := merged.Runs[0].Cells[1].Data.(json.RawMessage); string(got) != `{"v":1}` {
		t.Errorf("cell 1 = %s, want the first file's copy", merged.Runs[0].Cells[1].Data)
	}
	if merged.Batch != nil {
		t.Error("merged cover still carries a batch header")
	}
}

func TestMergeBatchesRejectsBadSets(t *testing.T) {
	grid := Grid{Points: 1, Systems: 4}
	ok := func() []*File {
		return []*File{
			mkBatch(t, "fig5", grid, []int{0, 1}, `{"seed":1}`),
			mkBatch(t, "fig5", grid, []int{2, 3}, `{"seed":1}`),
		}
	}
	if _, _, err := MergeBatches(nil); err == nil {
		t.Error("empty input accepted")
	}
	incomplete := ok()[:1]
	if _, _, err := MergeBatches(incomplete); err == nil {
		t.Error("incomplete cover accepted")
	}
	truncated := ok()
	truncated[0].Runs[0].Cells = truncated[0].Runs[0].Cells[:1]
	if _, _, err := MergeBatches(truncated); err == nil {
		t.Error("truncated batch accepted")
	}
	foreign := ok()
	foreign[0].Runs[0].Cells[0].System = 3
	if _, _, err := MergeBatches(foreign); err == nil {
		t.Error("foreign cell accepted")
	}
	params := ok()
	params[1].Params = json.RawMessage(`{"seed":2}`)
	if _, _, err := MergeBatches(params); err == nil {
		t.Error("params mismatch accepted")
	}
	notBatch := ok()
	notBatch[1] = mkFile(t, "fig5", grid, 2, 1, `{"seed":1}`)
	if _, _, err := MergeBatches(notBatch); err == nil {
		t.Error("non-batch file accepted")
	}
}

func TestBatchFileContract(t *testing.T) {
	grid := Grid{Points: 1, Systems: 4}
	good := mkBatch(t, "fig5", grid, []int{1, 3}, `{"seed":1}`)
	if err := good.ValidateCells(); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	// Batch files survive an encode/decode round trip with their header.
	data, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Batch == nil || !reflect.DeepEqual(back.Batch.Cells, [][]int{{1, 3}}) {
		t.Errorf("batch header lost in round trip: %+v", back.Batch)
	}
	if err := back.ValidateCells(); err != nil {
		t.Errorf("round-tripped batch invalid: %v", err)
	}

	for name, mutate := range map[string]func(*File){
		"nontrivial plan":  func(f *File) { f.Shards = 2; f.Index = 1 },
		"partial header":   func(f *File) { f.Partial = &PartialInfo{Shards: 2, Present: []int{0}} },
		"set count":        func(f *File) { f.Batch.Cells = f.Batch.Cells[:0] },
		"descending cells": func(f *File) { f.Batch.Cells = [][]int{{3, 1}} },
		"out of range":     func(f *File) { f.Batch.Cells = [][]int{{1, 99}} },
	} {
		f := mkBatch(t, "fig5", grid, []int{1, 3}, `{"seed":1}`)
		mutate(f)
		if err := f.validateBatch(); err == nil {
			t.Errorf("%s accepted", name)
		}
		data, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); err == nil {
			t.Errorf("%s survived Decode", name)
		}
	}

	// Merge and MergePartial both refuse batch files outright.
	if _, err := Merge([]*File{good}); err == nil {
		t.Error("Merge accepted a batch file")
	}
	if _, err := MergePartial([]*File{good}); err == nil {
		t.Error("MergePartial accepted a batch file")
	}
}
