package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestNewPlanValidation(t *testing.T) {
	for _, tc := range []struct {
		shards, index int
		ok            bool
	}{
		{1, 0, true}, {3, 0, true}, {3, 2, true}, {8, 7, true},
		{0, 0, false}, {-1, 0, false}, {3, 3, false}, {3, -1, false},
	} {
		_, err := NewPlan(tc.shards, tc.index)
		if (err == nil) != tc.ok {
			t.Errorf("NewPlan(%d,%d) err=%v, want ok=%v", tc.shards, tc.index, err, tc.ok)
		}
	}
}

func TestPlanOwnershipPartitions(t *testing.T) {
	// Every cell of a grid is owned by exactly one shard, and round-robin
	// ownership spreads each outer row across all shards.
	grid := Grid{Points: 5, Systems: 7}
	for _, n := range []int{1, 3, 8} {
		counts := make([]int, n)
		for g := 0; g < grid.Cells(); g++ {
			owners := 0
			for i := 0; i < n; i++ {
				if (Plan{Shards: n, Index: i}).Owns(g) {
					owners++
					counts[i]++
				}
			}
			if owners != 1 {
				t.Fatalf("N=%d: cell %d has %d owners", n, g, owners)
			}
		}
		for i, c := range counts {
			if c < grid.Cells()/n {
				t.Errorf("N=%d: shard %d owns %d cells, want >= %d", n, i, c, grid.Cells()/n)
			}
		}
	}
	// Selector agrees with Owns through the (point, system) coordinates.
	p := Plan{Shards: 3, Index: 1}
	sel := p.Selector(grid.Systems)
	for o := 0; o < grid.Points; o++ {
		for i := 0; i < grid.Systems; i++ {
			if sel(o, i) != p.Owns(o*grid.Systems+i) {
				t.Fatalf("Selector(%d,%d) disagrees with Owns", o, i)
			}
		}
	}
}

func TestGridIndexBounds(t *testing.T) {
	g := Grid{Points: 2, Systems: 3}
	if idx, err := g.Index(1, 2); err != nil || idx != 5 {
		t.Errorf("Index(1,2) = %d,%v", idx, err)
	}
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 3}} {
		if _, err := g.Index(c[0], c[1]); err == nil {
			t.Errorf("Index(%d,%d) accepted", c[0], c[1])
		}
	}
}

// mkFile builds a shard file holding its round-robin share of a grid whose
// cell payloads encode the global index.
func mkFile(t *testing.T, selection string, grid Grid, shards, index int, params string) *File {
	t.Helper()
	plan, err := NewPlan(shards, index)
	if err != nil {
		t.Fatal(err)
	}
	f := &File{
		Version:   FormatVersion,
		Selection: selection,
		Shards:    shards,
		Index:     index,
		Params:    json.RawMessage(params),
		Runs:      []Run{{Experiment: selection, Grid: grid}},
	}
	for g := 0; g < grid.Cells(); g++ {
		if !plan.Owns(g) {
			continue
		}
		f.Runs[0].Cells = append(f.Runs[0].Cells, Cell{
			Point:  g / grid.Systems,
			System: g % grid.Systems,
			Seed:   int64(1000 + g),
			Data:   json.RawMessage(fmt.Sprintf(`{"v":%d}`, g)),
		})
	}
	return f
}

func TestMergeReassemblesGridOrder(t *testing.T) {
	grid := Grid{Points: 3, Systems: 4}
	for _, n := range []int{1, 3, 8} {
		files := make([]*File, n)
		for i := range files {
			files[i] = mkFile(t, "fig5", grid, n, i, `{"seed":1}`)
		}
		// Shuffle the file order: merge must not care.
		for i, j := 0, len(files)-1; i < j; i, j = i+1, j-1 {
			files[i], files[j] = files[j], files[i]
		}
		merged, err := Merge(files)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if merged.Shards != 1 || merged.Index != 0 {
			t.Errorf("N=%d: merged decomposition %d/%d", n, merged.Index, merged.Shards)
		}
		cells := merged.Runs[0].Cells
		if len(cells) != grid.Cells() {
			t.Fatalf("N=%d: %d cells", n, len(cells))
		}
		for g, c := range cells {
			var payload struct{ V int }
			if err := json.Unmarshal(c.Data.(json.RawMessage), &payload); err != nil {
				t.Fatal(err)
			}
			if payload.V != g || c.Point != g/grid.Systems || c.System != g%grid.Systems {
				t.Fatalf("N=%d: cell %d = %+v payload %d", n, g, c, payload.V)
			}
			if c.Seed != int64(1000+g) {
				t.Errorf("N=%d: cell %d lost its seed: %d", n, g, c.Seed)
			}
		}
		// A merged file is a valid 1-shard file: merging it again is the
		// identity.
		again, err := Merge([]*File{merged})
		if err != nil {
			t.Fatalf("re-merge: %v", err)
		}
		if len(again.Runs[0].Cells) != grid.Cells() {
			t.Errorf("re-merge lost cells")
		}
	}
}

func TestMergeRejectsBadShardSets(t *testing.T) {
	grid := Grid{Points: 2, Systems: 3}
	mk := func(i int) *File { return mkFile(t, "fig5", grid, 3, i, `{"seed":1}`) }
	cases := []struct {
		name  string
		files func() []*File
		want  string
	}{
		{"empty", func() []*File { return nil }, "at least one"},
		{"missing shard", func() []*File { return []*File{mk(0), mk(1)} }, "3-shard"},
		{"duplicate index", func() []*File { return []*File{mk(0), mk(1), mk(1)} }, "twice"},
		{"params mismatch", func() []*File {
			f := mkFile(t, "fig5", grid, 3, 2, `{"seed":2}`)
			return []*File{mk(0), mk(1), f}
		}, "params mismatch"},
		{"selection mismatch", func() []*File {
			f := mkFile(t, "fig6", grid, 3, 2, `{"seed":1}`)
			return []*File{mk(0), mk(1), f}
		}, "selections"},
		{"grid mismatch", func() []*File {
			f := mkFile(t, "fig5", Grid{Points: 2, Systems: 4}, 3, 2, `{"seed":1}`)
			return []*File{mk(0), mk(1), f}
		}, "run"},
		{"foreign cell", func() []*File {
			f := mk(2)
			// Move the cell to g=3 (in range, owned by shard 0 of 3).
			f.Runs[0].Cells[0].Point, f.Runs[0].Cells[0].System = 1, 0
			return []*File{mk(0), mk(1), f}
		}, "foreign"},
		{"missing cell", func() []*File {
			f := mk(2)
			f.Runs[0].Cells = f.Runs[0].Cells[1:]
			return []*File{mk(0), mk(1), f}
		}, "missing"},
		{"out of range cell", func() []*File {
			f := mk(2)
			f.Runs[0].Cells[0].Point = 99
			return []*File{mk(0), mk(1), f}
		}, "outside"},
	}
	for _, tc := range cases {
		_, err := Merge(tc.files())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestFileRoundTripAndVersionGate(t *testing.T) {
	f := mkFile(t, "fig5", Grid{Points: 2, Systems: 2}, 1, 0, `{"seed":7}`)
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("encode/decode/encode is not byte-stable")
	}

	path := filepath.Join(t.TempDir(), "s.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rf, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rf.CellCount() != f.CellCount() || rf.Selection != f.Selection {
		t.Errorf("file round trip lost data: %+v", rf)
	}

	f.Version = FormatVersion + 1
	bad, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}

	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCorruptGridsAreRejected: a corrupt or hand-edited grid header must
// fail with a clean validation error, never a panic or an
// allocation sized by the corrupt value.
func TestCorruptGridsAreRejected(t *testing.T) {
	mk := func(mutate func(*File)) []byte {
		f := mkFile(t, "fig5", Grid{Points: 2, Systems: 2}, 1, 0, `{"seed":1}`)
		mutate(f)
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if _, err := Decode(mk(func(f *File) { f.Runs[0].Grid.Points = -1 })); err == nil ||
		!strings.Contains(err.Error(), "negative grid") {
		t.Errorf("negative points: %v", err)
	}
	if _, err := Decode(mk(func(f *File) { f.Runs[0].Grid.Systems = -3 })); err == nil ||
		!strings.Contains(err.Error(), "negative grid") {
		t.Errorf("negative systems: %v", err)
	}
	if _, err := Decode(mk(func(f *File) { f.Runs[0].Grid = Grid{Points: 1, Systems: 1} })); err == nil ||
		!strings.Contains(err.Error(), "cells") {
		t.Errorf("more cells than grid: %v", err)
	}
	if _, err := Decode(mk(func(f *File) {
		f.Runs[0].Grid = Grid{Points: 1 << 30, Systems: 1 << 30}
	})); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized grid: %v", err)
	}
	// Merge accepts hand-built files that never passed Decode; it must
	// reject the same corruption instead of panicking.
	f := mkFile(t, "fig5", Grid{Points: 2, Systems: 2}, 1, 0, `{"seed":1}`)
	f.Runs[0].Grid.Points = -1
	if _, err := Merge([]*File{f}); err == nil || !strings.Contains(err.Error(), "negative grid") {
		t.Errorf("merge of negative grid: %v", err)
	}
}

// TestMergeRejectsInvalidDecomposition: a hand-built file whose Index
// lies outside [0, Shards) must produce a clean error, not an
// out-of-range panic when merge indexes its bookkeeping by shard index.
func TestMergeRejectsInvalidDecomposition(t *testing.T) {
	mk := func(shards, index int) *File {
		f := mkFile(t, "fig5", Grid{Points: 2, Systems: 2}, 1, 0, `{"seed":1}`)
		f.Shards, f.Index = shards, index
		return f
	}
	for _, tc := range [][2]int{{1, 5}, {1, -1}, {0, 0}} {
		if _, err := Merge([]*File{mk(tc[0], tc[1])}); err == nil {
			t.Errorf("decomposition %d/%d accepted", tc[1], tc[0])
		}
	}
}

// TestValidateCells: the per-file completeness check dispatch retry logic
// relies on — a file must hold exactly the cells its plan owns.
func TestValidateCells(t *testing.T) {
	grid := Grid{Points: 3, Systems: 4}
	for _, tc := range [][2]int{{1, 0}, {3, 0}, {3, 2}, {5, 4}} {
		if err := mkFile(t, "fig5", grid, tc[0], tc[1], `{"seed":1}`).ValidateCells(); err != nil {
			t.Errorf("complete shard %d/%d rejected: %v", tc[1], tc[0], err)
		}
	}

	// Missing one owned cell (a partial write).
	f := mkFile(t, "fig5", grid, 3, 1, `{"seed":1}`)
	f.Runs[0].Cells = f.Runs[0].Cells[:len(f.Runs[0].Cells)-1]
	if err := f.ValidateCells(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("partial shard: %v", err)
	}

	// A cell another shard owns.
	f = mkFile(t, "fig5", grid, 3, 1, `{"seed":1}`)
	f.Runs[0].Cells[0] = Cell{Point: 0, System: 0, Data: json.RawMessage(`{}`)} // global index 0 ∉ shard 1
	if err := f.ValidateCells(); err == nil || !strings.Contains(err.Error(), "foreign") {
		t.Errorf("foreign cell: %v", err)
	}

	// A duplicated cell.
	f = mkFile(t, "fig5", grid, 3, 1, `{"seed":1}`)
	f.Runs[0].Cells = append(f.Runs[0].Cells, f.Runs[0].Cells[0])
	if err := f.ValidateCells(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate cell: %v", err)
	}

	// An out-of-range cell.
	f = mkFile(t, "fig5", grid, 3, 1, `{"seed":1}`)
	f.Runs[0].Cells[0] = Cell{Point: 9, System: 9, Data: json.RawMessage(`{}`)}
	if err := f.ValidateCells(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("out-of-range cell: %v", err)
	}

	// An invalid decomposition or grid fails cleanly.
	f = mkFile(t, "fig5", grid, 3, 1, `{"seed":1}`)
	f.Shards, f.Index = 3, 7
	if err := f.ValidateCells(); err == nil {
		t.Error("invalid decomposition accepted")
	}
	f = mkFile(t, "fig5", grid, 3, 1, `{"seed":1}`)
	f.Runs[0].Grid.Points = -1
	if err := f.ValidateCells(); err == nil {
		t.Error("negative grid accepted")
	}
}

// TestMergeHostConsensus: the merged Host is the distinct worker
// fingerprints, sorted and joined — order-independent, idempotent under
// re-merge, and empty when every shard is reproducible (no fingerprint),
// so byte-identity runs never gain a host field.
func TestMergeHostConsensus(t *testing.T) {
	grid := Grid{Points: 2, Systems: 3}
	mk := func(host string, n, i int) *File {
		f := mkFile(t, "fig5", grid, n, i, `{"seed":1}`)
		f.Host = host
		return f
	}
	for _, tc := range []struct {
		hosts []string
		want  string
	}{
		{[]string{"", "", ""}, ""},
		{[]string{"b", "a", "b"}, "a; b"},
		{[]string{"x", "", "x"}, "x"},
	} {
		files := make([]*File, len(tc.hosts))
		for i, h := range tc.hosts {
			files[i] = mk(h, len(tc.hosts), i)
		}
		merged, err := Merge(files)
		if err != nil {
			t.Fatalf("hosts %v: %v", tc.hosts, err)
		}
		if merged.Host != tc.want {
			t.Errorf("hosts %v: merged host %q, want %q", tc.hosts, merged.Host, tc.want)
		}
		// Idempotent: a merged file re-merges to the same consensus.
		again, err := Merge([]*File{merged})
		if err != nil {
			t.Fatalf("re-merge: %v", err)
		}
		if again.Host != tc.want {
			t.Errorf("hosts %v: re-merged host %q, want %q", tc.hosts, again.Host, tc.want)
		}
	}
}

// TestHostOmittedFromJSONWhenEmpty: reproducible shard files must not
// change by a byte with the host field's existence — empty Host
// marshals to nothing.
func TestHostOmittedFromJSONWhenEmpty(t *testing.T) {
	f := mkFile(t, "fig5", Grid{Points: 1, Systems: 1}, 1, 0, `{"seed":1}`)
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"host"`)) {
		t.Errorf("empty host serialised: %s", data)
	}
	f.Host = "linux/amd64 cpus=8 go1.24.0"
	data, err = json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"host":"linux/amd64 cpus=8 go1.24.0"`)) {
		t.Errorf("host not serialised: %s", data)
	}
}
