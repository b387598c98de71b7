package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/shard"
)

// coverRef is a selection's unsharded run under one params set: the file
// RunShard writes for it, its encoding, and every run's in-process
// result as Rows renders it.
type coverRef struct {
	file *shard.File
	enc  []byte
	rows map[string][2]any
}

var (
	coverRefsMu sync.Mutex
	coverRefs   = map[string]*coverRef{}
)

// coverReference returns the memoised unsharded run of selection under
// p: one "all" reference costs about a tenth of a second, and a fuzz
// worker draws the same few again and again.
func coverReference(t *testing.T, selection string, p ShardParams) *coverRef {
	t.Helper()
	coverRefsMu.Lock()
	defer coverRefsMu.Unlock()
	key := fmt.Sprintf("%s %+v", selection, p)
	if ref, ok := coverRefs[key]; ok {
		return ref
	}
	f, err := RunShard(selection, p, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := &coverRef{file: f, enc: encoded(t, f), rows: map[string][2]any{}}
	for _, r := range f.Runs {
		res, err := Run(r.Experiment, p.Context(1))
		if err != nil {
			t.Fatal(err)
		}
		ref.rows[r.Experiment] = rowsOf(res)
	}
	coverRefs[key] = ref
	return ref
}

// rowsOf is a result's Rows as one comparable value (nil for no result).
func rowsOf(res Result) [2]any {
	if res == nil {
		return [2]any{}
	}
	h, rows := res.Rows()
	return [2]any{h, rows}
}

// restricted returns ref's file holding, per run, only the cells keep
// selects.
func restricted(ref *shard.File, keep func(ri, g int) bool) *shard.File {
	f := *ref
	f.Runs = make([]shard.Run, len(ref.Runs))
	for ri, r := range ref.Runs {
		r.Cells = []shard.Cell{}
		for _, c := range ref.Runs[ri].Cells {
			if keep(ri, c.Point*r.Grid.Systems+c.System) {
				r.Cells = append(r.Cells, c)
			}
		}
		f.Runs[ri] = r
	}
	return &f
}

// rotated returns files rotated left by k: merges must not depend on
// the order their inputs arrive in.
func rotated(files []*shard.File, k int) []*shard.File {
	return append(slices.Clone(files[k:]), files[:k]...)
}

// fuzzDraws hands out values drawn from fuzz bytes; once they run out
// every draw is 0.
type fuzzDraws []byte

// draw returns a value in [0, n).
func (d *fuzzDraws) draw(n int) int {
	if len(*d) == 0 {
		return 0
	}
	v := int((*d)[0]) % n
	*d = (*d)[1:]
	return v
}

// FuzzCoverEquivalence is the experiment-level half of the cover
// equivalence: whatever decomposition a run is split into, whatever
// cells the cache already holds, and whatever codec and parallelism each
// unit runs at, the units' merge is byte-identical to the unsharded run,
// a partial merge is the reference restricted to its cells, and the
// aggregated results render the same rows as the in-process run.
//
// From its input it draws a selection (any reproducible grid experiment,
// or "all") at 2–3 systems and GA 8×6; a decomposition (round-robin
// over 1–8 shards, cost-packed batches, or a random partition that
// duplicates some cells); a fresh cache pre-warmed with a random cell
// subset; per unit a codec, a parallelism and whether the cache is
// probed first; the units of a partial merge; and the order each merge
// receives its files in.
func FuzzCoverEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 0, 2, 3, 1, 0, 1, 1, 1, 0, 1, 2, 1, 1})
	f.Add([]byte{0, 0, 1, 3, 5, 0, 1, 1, 0, 0, 1, 1, 2, 1, 0, 1, 1})
	f.Add([]byte{7, 0, 2, 4, 1, 2, 3, 0, 3, 1, 4, 2, 1, 0, 5, 3, 1, 1, 0, 1, 1, 0, 1, 3, 1, 0, 1})
	f.Add([]byte{3, 1, 2, 2, 3, 1, 3, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDraws(data)
		sels := append(ReproducibleGridExperiments(), ExpAll)
		selection := sels[d.draw(len(sels))]
		p := ShardParams{Systems: 2 + d.draw(2), Seed: 1, GAPopulation: 8, GAGenerations: 6}
		ref := coverReference(t, selection, p)
		rp, err := PlanSelection(selection, p)
		if err != nil {
			t.Fatal(err)
		}
		rc := p.Context(1)

		// The decomposition: units[u][ri] lists run ri's cells in unit u,
		// ascending.
		kind, n := d.draw(3), 1+d.draw(8)
		var units [][][]int
		switch kind {
		case 0, 2:
			units = make([][][]int, n)
			for u := range units {
				units[u] = make([][]int, len(rp.Grids))
			}
			for ri, g := range rp.Grids {
				for gi := range g.Cells() {
					u := gi % n
					if kind == 2 {
						u = d.draw(n)
					}
					units[u][ri] = append(units[u][ri], gi)
					if kind == 2 && d.draw(4) == 0 {
						if dup := d.draw(n); dup != u {
							units[dup][ri] = append(units[dup][ri], gi)
						}
					}
				}
			}
		case 1:
			units = splitPlan(t, rp, shard.CostPacked{Costs: rp.Costs}, n)
		}

		// A fresh cache holding a random subset of each cell computation
		// (fig6 and fig7 share one).
		store := openStore(t, t.TempDir())
		warm := make([][]bool, len(rp.Grids))
		for ri, g := range rp.Grids {
			if rp.Groups[ri] != ri {
				warm[ri] = warm[rp.Groups[ri]]
				continue
			}
			warm[ri] = make([]bool, g.Cells())
			for gi := range warm[ri] {
				warm[ri][gi] = d.draw(2) == 1
			}
		}
		if err := DepositFile(store, restricted(ref.file, func(ri, g int) bool { return warm[ri][g] }), p); err != nil {
			t.Fatal(err)
		}

		// Probe first, as a dispatch plan does: a unit is cached exactly
		// when every cell it owns was deposited.
		probe := NewCacheProbe(store)
		files := make([]*shard.File, n)
		for u := range units {
			if d.draw(2) == 0 {
				continue
			}
			var (
				hit bool
				err error
			)
			if kind == 0 {
				files[u], hit, err = probe.Shard(selection, p, n, u)
			} else {
				files[u], hit, err = probe.Batch(selection, p, units[u])
			}
			if err != nil {
				t.Fatal(err)
			}
			want := true
			for ri, set := range units[u] {
				for _, g := range set {
					want = want && warm[ri][g]
				}
			}
			if hit != want {
				t.Fatalf("unit %d: probe hit = %v, want %v", u, hit, want)
			}
		}
		for u := range units {
			par := 1 + d.draw(4)
			if files[u] == nil {
				if kind == 0 {
					files[u], err = RunShardCached(selection, p, par, n, u, store)
				} else {
					files[u], err = RunBatchCached(selection, p, par, units[u], store)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			data, err := files[u].EncodeAs([]string{shard.EncodingJSON, shard.EncodingBinary}[d.draw(2)])
			if err != nil {
				t.Fatal(err)
			}
			if files[u], err = shard.Decode(data); err != nil {
				t.Fatal(err)
			}
		}

		// The complete merge is the unsharded run, and aggregates to the
		// in-process results on both aggregation paths.
		var merged *shard.File
		if order := rotated(files, d.draw(n)); kind == 0 {
			merged, err = shard.Merge(order)
		} else {
			merged, _, err = shard.MergeBatches(order)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded(t, merged), ref.enc) {
			t.Fatalf("decomposition %d over %d units: merge differs from the unsharded run", kind, n)
		}
		for _, r := range merged.Runs {
			res, err := FromCells(r.Experiment, rc, r.Cells)
			if err != nil {
				t.Fatal(err)
			}
			part, cov, err := FromCellsPartial(r.Experiment, rc, r.Cells)
			if err != nil || !cov.Complete() {
				t.Fatalf("%s: partial path over the complete cover: cov %v, err %v", r.Experiment, cov, err)
			}
			if want := ref.rows[r.Experiment]; !reflect.DeepEqual(rowsOf(res), want) || !reflect.DeepEqual(rowsOf(part), want) {
				t.Fatalf("%s: merged rows differ from the in-process run", r.Experiment)
			}
		}

		// A subset of the units is the reference restricted to their
		// cells, through MergePartial for shard covers.
		in := make([]bool, n)
		have := make([][]bool, len(rp.Grids))
		for ri, g := range rp.Grids {
			have[ri] = make([]bool, g.Cells())
		}
		var sub []*shard.File
		var present, missing []int
		for u := range units {
			if in[u] = d.draw(2) == 1; !in[u] {
				missing = append(missing, u)
				continue
			}
			sub, present = append(sub, files[u]), append(present, u)
			for ri, set := range units[u] {
				for _, g := range set {
					have[ri][g] = true
				}
			}
		}
		if len(sub) == 0 {
			return
		}
		expect := restricted(ref.file, func(ri, g int) bool { return have[ri][g] })
		if kind == 0 {
			cover, err := shard.MergePartial(rotated(sub, d.draw(len(sub))))
			if err != nil {
				t.Fatal(err)
			}
			want := *expect
			if len(missing) > 0 {
				want.Partial = &shard.PartialInfo{Shards: n, Present: present}
			}
			if !bytes.Equal(encoded(t, cover.File), encoded(t, &want)) {
				t.Fatalf("partial merge of shards %v of %d is not the reference restricted to them", present, n)
			}
		}
		for ri, r := range expect.Runs {
			g := r.Grid
			var got []shard.Cell
			seen := make([]bool, g.Cells())
			for _, f := range sub {
				for _, c := range f.Runs[ri].Cells {
					if gi := c.Point*g.Systems + c.System; !seen[gi] {
						seen[gi], got = true, append(got, c)
					}
				}
			}
			slices.SortFunc(got, func(a, b shard.Cell) int { return (a.Point*g.Systems + a.System) - (b.Point*g.Systems + b.System) })
			a, errA := json.Marshal(got)
			b, errB := json.Marshal(r.Cells)
			if errA != nil || errB != nil || (len(got) > 0 || len(r.Cells) > 0) && !bytes.Equal(a, b) {
				t.Fatalf("%s: units %v hold other cells than the reference restricted to them", r.Experiment, present)
			}
			res, cov, err := FromCellsPartial(r.Experiment, rc, got)
			if err != nil {
				t.Fatal(err)
			}
			want, wantCov, err := FromCellsPartial(r.Experiment, rc, r.Cells)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rowsOf(res), rowsOf(want)) || !reflect.DeepEqual(cov, wantCov) {
				t.Fatalf("%s: partial rows over units %v differ from the restricted reference's", r.Experiment, present)
			}
		}
	})
}
