package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestHugeShardCountRejected: a tiny file declaring more than MaxCells
// shards, in its plan or in its partial header, is rejected before
// anything is sized from the count — decoding and merging it allocate
// under 1 MiB.
func TestHugeShardCountRejected(t *testing.T) {
	for _, hdr := range []string{
		`"shards":20000000,"shard_index":0`,
		`"shards":1,"shard_index":0,"partial":{"shards":20000000,"present_shards":[0]}`,
	} {
		data := []byte(`{"version":1,"selection":"fig5",` + hdr +
			`,"params":{"seed":1},"runs":[{"experiment":"fig5","grid":{"points":1,"systems":1},"cells":[]}]}`)
		var f File // as a caller builds it, without Decode
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		var decErr, mergeErr error
		alloc := allocated(func() {
			_, decErr = Decode(data)
			_, mergeErr = MergePartial([]*File{&f})
		})
		if decErr == nil || mergeErr == nil {
			t.Errorf("%d-byte file %s: decode err %v, merge err %v", len(data), hdr, decErr, mergeErr)
		}
		if alloc > 1<<20 {
			t.Errorf("%d-byte file %s: rejecting it allocated %d bytes", len(data), hdr, alloc)
		}
	}
}

// coverGen draws a cover of one run from fuzz bytes; once they run out
// every draw is 0.
type coverGen struct {
	data []byte
	full *File // the unsharded run
}

// draw returns a value in [0, n).
func (c *coverGen) draw(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	v := int(c.data[0]) % n
	c.data = c.data[1:]
	return v
}

// newCoverGen draws 1–2 runs of small grids and builds their unsharded
// file, each cell's payload naming its run and global index.
func newCoverGen(data []byte) *coverGen {
	c := &coverGen{data: data}
	c.full = &File{Version: FormatVersion, Selection: "fuzz", Shards: 1, Params: json.RawMessage(`{"seed":1}`)}
	for ri := range 1 + c.draw(2) {
		grid := Grid{Points: 1 + c.draw(3), Systems: 1 + c.draw(4)}
		run := Run{Experiment: fmt.Sprintf("r%d", ri), Grid: grid}
		for g := range grid.Cells() {
			run.Cells = append(run.Cells, Cell{Point: g / grid.Systems, System: g % grid.Systems,
				Seed: int64(100*ri + g), Data: json.RawMessage(fmt.Sprintf(`{"r":%d,"g":%d}`, ri, g))})
		}
		c.full.Runs = append(c.full.Runs, run)
	}
	return c
}

// file returns a fresh file with the full run's header and, per run,
// the cells keep selects, in grid order.
func (c *coverGen) file(keep func(ri, g int) bool) *File {
	f := *c.full
	f.Runs = nil
	for ri, run := range c.full.Runs {
		r := run
		r.Cells = []Cell{}
		for g, cell := range run.Cells {
			if keep(ri, g) {
				r.Cells = append(r.Cells, cell)
			}
		}
		f.Runs = append(f.Runs, r)
	}
	return &f
}

// shard returns shard i of n.
func (c *coverGen) shard(n, i int) *File {
	f := c.file(func(_, g int) bool { return g%n == i })
	f.Shards, f.Index = n, i
	return f
}

// batch returns the batch file holding the given per-run cell sets.
func (c *coverGen) batch(sets [][]int) *File {
	f := c.file(func(ri, g int) bool { _, ok := slices.BinarySearch(sets[ri], g); return ok })
	f.Batch = &BatchInfo{Cells: sets}
	return f
}

// batches draws a batch decomposition — RoundRobin, CostPacked or a
// random partition in which some cells also go to a second batch — and
// returns its cell sets per batch and the number of duplicated cells.
func (c *coverGen) batches() ([][][]int, int) {
	var grids []Grid
	for _, r := range c.full.Runs {
		grids = append(grids, r.Grid)
	}
	parts := 1 + c.draw(8)
	var assign [][]int
	switch c.draw(3) {
	case 0:
		assign, _ = RoundRobin{}.Split(grids, parts)
	case 1:
		costs := make([][]float64, len(grids))
		for ri, g := range grids {
			for range g.Cells() {
				costs[ri] = append(costs[ri], float64(c.draw(4)))
			}
		}
		assign, _ = CostPacked{Costs: costs}.Split(grids, parts)
	default:
		for _, g := range grids {
			a := make([]int, g.Cells())
			for i := range a {
				a[i] = c.draw(parts)
			}
			assign = append(assign, a)
		}
	}
	sets := make([][][]int, parts)
	for p := range sets {
		sets[p] = make([][]int, len(grids))
	}
	dups := 0
	for ri, a := range assign {
		for g, p := range a {
			sets[p][ri] = append(sets[p][ri], g)
			if c.draw(4) == 3 {
				if q := c.draw(parts); q != p {
					sets[q][ri] = append(sets[q][ri], g)
					dups++
				}
			}
		}
	}
	return sets, dups
}

// encodings renders f as v1 JSON and as the v2 binary container.
func encodings(t *testing.T, f *File) [2][]byte {
	t.Helper()
	j, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	return [2][]byte{j, b}
}

// FuzzMergeCovers generates covers instead of hand-picking them: 1–2
// runs of small grids, round-robin shard files, batch files from one of
// three decompositions and a random subset of the shards. Complete
// covers from all three merges encode byte-identically to the unsharded
// run; a partial merge is the full merge restricted to its shards, and
// re-merging it with the rest gives the full merge; and one injected
// defect — a dropped, foreign or duplicated cell — is rejected by every
// entry point that must reject it.
func FuzzMergeCovers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 2, 3, 4, 0, 1, 0, 1, 1, 2})
	f.Add([]byte{0, 0, 0, 7, 1, 0, 1, 0, 1, 0, 2, 5, 2, 3, 1, 0, 2, 9, 9, 9, 1, 4})
	f.Add([]byte{1, 2, 3, 1, 1, 5, 2, 4, 3, 2, 1, 0, 3, 1, 2, 0, 1, 2, 3, 0, 1, 1, 2, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newCoverGen(data)
		want := encodings(t, c.full)
		n := 1 + c.draw(8)
		shards := make([]*File, n)
		for i := range shards {
			shards[i] = c.shard(n, i)
		}
		if c.draw(2) == 1 {
			slices.Reverse(shards) // order must not matter
		}
		sets, wantDups := c.batches()
		var batches []*File
		for _, s := range sets {
			batches = append(batches, c.batch(s))
		}

		// Complete covers: all three merges give the unsharded bytes.
		merged, err := Merge(shards)
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
		cover, err := MergePartial(shards)
		if err != nil {
			t.Fatalf("MergePartial of the complete set: %v", err)
		}
		fromBatches, dups, err := MergeBatches(batches)
		if err != nil {
			t.Fatalf("MergeBatches: %v", err)
		}
		if dups != wantDups {
			t.Fatalf("MergeBatches discarded %d duplicates, want %d", dups, wantDups)
		}
		for name, got := range map[string]*File{"Merge": merged, "MergePartial": cover.File, "MergeBatches": fromBatches} {
			if enc := encodings(t, got); !bytes.Equal(enc[0], want[0]) || !bytes.Equal(enc[1], want[1]) {
				t.Fatalf("%s of a complete cover differs from the unsharded run", name)
			}
		}

		// A partial merge is the full merge restricted to its shards.
		var sub, rest []*File
		in := make([]bool, n)
		for _, s := range shards {
			if c.draw(2) == 1 {
				sub, in[s.Index] = append(sub, s), true
			} else {
				rest = append(rest, s)
			}
		}
		if len(sub) > 0 {
			part, err := MergePartial(sub)
			if err != nil {
				t.Fatalf("MergePartial of a subset: %v", err)
			}
			expect := c.file(func(_, g int) bool { return in[g%n] })
			var present, missing []int
			for i, ok := range in {
				if ok {
					present = append(present, i)
				} else {
					missing = append(missing, i)
				}
			}
			if len(missing) > 0 {
				expect.Partial = &PartialInfo{Shards: n, Present: present}
			}
			if !reflect.DeepEqual(part.Present, present) || !reflect.DeepEqual(part.Missing, missing) {
				t.Fatalf("subset present %v missing %v, want %v and %v", part.Present, part.Missing, present, missing)
			}
			if got, exp := encodings(t, part.File), encodings(t, expect); !bytes.Equal(got[0], exp[0]) || !bytes.Equal(got[1], exp[1]) {
				t.Fatalf("MergePartial of %v is not the full merge restricted to it", present)
			}
			// Re-merge the partial file, read back from either encoding,
			// with the remaining shards: both renderings equal Merge's, as
			// the merged file carries compacted params whatever its first
			// input's encoding.
			back, err := Decode(encodings(t, part.File)[c.draw(2)])
			if err != nil {
				t.Fatalf("partial file does not decode: %v", err)
			}
			again, err := MergePartial(append([]*File{back}, rest...))
			if err != nil {
				t.Fatalf("re-merging the partial file: %v", err)
			}
			if enc := encodings(t, again.File); !bytes.Equal(enc[0], want[0]) || !bytes.Equal(enc[1], want[1]) {
				t.Fatal("partial file re-merged with the rest differs from Merge")
			}
		}

		// One injected defect, in one shard file and in one batch file.
		defect, k, b := c.draw(3), c.draw(n), c.draw(len(sets))
		if bad := c.shard(n, k); inject(bad, defect, func(_, g int) bool { return g%n != k }) {
			all := make([]*File, n)
			for i := range all {
				all[i] = c.shard(n, i)
			}
			all[k] = bad
			if _, err := Merge(all); err == nil {
				t.Fatalf("Merge accepted defect %d in shard %d", defect, k)
			}
			if _, err := MergePartial(all); err == nil {
				t.Fatalf("MergePartial accepted defect %d in shard %d", defect, k)
			}
			if err := bad.ValidateCells(); err == nil {
				t.Fatalf("ValidateCells accepted defect %d in shard %d", defect, k)
			}
		}
		owned := func(ri, g int) bool { _, ok := slices.BinarySearch(sets[b][ri], g); return ok }
		if bad := c.batch(sets[b]); inject(bad, defect, func(ri, g int) bool { return !owned(ri, g) }) {
			batches[b] = bad
			if _, _, err := MergeBatches(batches); err == nil {
				t.Fatalf("MergeBatches accepted defect %d in batch %d", defect, b)
			}
			if err := bad.ValidateCells(); err == nil {
				t.Fatalf("ValidateCells accepted defect %d in batch %d", defect, b)
			}
		}
	})
}

// inject applies one defect to f's first non-empty run — 0 drops a
// cell, 1 swaps one for a cell foreign reports f does not own, 2
// duplicates one — and reports whether the file could take it.
func inject(f *File, defect int, foreign func(ri, g int) bool) bool {
	for ri := range f.Runs {
		r := &f.Runs[ri]
		if len(r.Cells) == 0 {
			continue
		}
		switch defect {
		case 0:
			r.Cells = r.Cells[1:]
		case 1:
			for g := range r.Grid.Cells() {
				if foreign(ri, g) {
					r.Cells[0] = Cell{Point: g / r.Grid.Systems, System: g % r.Grid.Systems, Data: json.RawMessage(`{}`)}
					return true
				}
			}
			return false
		default:
			r.Cells = append(r.Cells, r.Cells[0])
		}
		return true
	}
	return false
}
