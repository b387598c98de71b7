package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cellcache"
	"repro/internal/experiment"
	"repro/internal/shard"
	"repro/internal/textplot"
)

// rerenderShards is how many round-robin shards one re-render reads back
// from the cache; the first half is written json (the CLI default), the
// rest binary.
const rerenderShards = 4

// rerender is rerender-warm: the re-render/resume path of a sweep whose
// cells are all cached. One op materialises every shard from the cache,
// writes and re-reads the shard files, merges them and renders every
// grid experiment's table.
type rerender struct {
	e      env
	p      experiment.ShardParams
	cache  *cellcache.Store
	want   []byte // the fill run's file, encoded json
	render string // the first op's rendered tables
}

func setupRerender(ctx context.Context, e env) (instance, error) {
	r := &rerender{e: e, p: experiment.ShardParams{Seed: e.seed, Systems: e.sz.rerenderSystems, GAPopulation: 6, GAGenerations: 4}}
	var err error
	if r.cache, err = cellcache.Open(filepath.Join(e.dir, "cache")); err != nil {
		return nil, err
	}
	fill, err := experiment.RunShardCached(experiment.ExpAll, r.p, e.nproc, 1, 0, r.cache)
	if err != nil {
		return nil, err
	}
	r.want, err = fill.EncodeAs(shard.EncodingJSON)
	return r, err
}

func (r *rerender) clients() int { return 1 }

func (r *rerender) minOps() int { return r.e.sz.minOps }

func (r *rerender) step(ctx context.Context, p *phase) error {
	tr := p.tr
	start := time.Now()
	root := tr.root("rerender")
	before := r.cache.Stats()
	paths := make([]string, rerenderShards)
	for i := range paths {
		var f *shard.File
		var ok bool
		if err := tr.do(root, "cellcache", "cellcache.get_s", func() (err error) {
			f, ok, err = experiment.CachedShard(r.cache, experiment.ExpAll, r.p, rerenderShards, i)
			return err
		}); err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("shard %d is not fully cached", i)
		}
		enc := shard.EncodingJSON
		if i >= rerenderShards/2 {
			enc = shard.EncodingBinary
		}
		var data []byte
		if err := tr.do(root, "shard", "shard.encode_s."+enc, func() (err error) {
			data, err = f.EncodeAs(enc)
			return err
		}); err != nil {
			return err
		}
		p.count("shard.bytes."+enc, float64(len(data)))
		p.count("shard.cells."+enc, float64(f.CellCount()))
		paths[i] = filepath.Join(r.e.dir, fmt.Sprintf("shard%d", i))
		if err := tr.do(root, "shard", "shard.write_s", func() error { return os.WriteFile(paths[i], data, 0o644) }); err != nil {
			return err
		}
	}
	after := r.cache.Stats()
	p.count("cellcache.hits", float64(after.Hits-before.Hits))
	p.count("cellcache.gets", float64(after.Hits+after.Misses-before.Hits-before.Misses))

	files := make([]*shard.File, len(paths))
	for i, path := range paths {
		if err := tr.do(root, "shard", "shard.decode_s", func() (err error) {
			files[i], err = shard.ReadFile(path)
			return err
		}); err != nil {
			return err
		}
	}
	var merged *shard.File
	if err := tr.do(root, "shard", "shard.merge_s", func() (err error) {
		merged, err = shard.Merge(files)
		return err
	}); err != nil {
		return err
	}
	rc := r.p.Context(r.e.nproc)
	var out strings.Builder
	for _, run := range merged.Runs {
		var res experiment.Result
		if err := tr.do(root, "experiment", "experiment.aggregate_s", func() (err error) {
			res, err = experiment.FromCells(run.Experiment, rc, run.Cells)
			return err
		}); err != nil {
			return err
		}
		tr.do(root, "experiment", "experiment.render_s", func() error {
			out.WriteString(textplot.Table(res.Rows()))
			return nil
		})
	}
	tr.end(root)
	p.op(time.Since(start))
	p.delivered(merged.CellCount(), 1, 0)

	// Outside the op: the first op's merge must equal the run that filled
	// the cache, and every later op must render the same tables.
	if r.render == "" {
		got, err := merged.EncodeAs(shard.EncodingJSON)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, r.want) {
			return fmt.Errorf("merged re-render differs from the run that filled the cache")
		}
		r.render = out.String()
	} else if out.String() != r.render {
		return fmt.Errorf("rendered tables differ between ops")
	}
	return nil
}

func (r *rerender) report(p *phase, m metrics) {
	if p.tr == nil {
		return
	}
	c := p.counts
	m.set("cellcache.gets", c["cellcache.gets"], "count")
	m.set("cellcache.hit_rate", c["cellcache.hits"]/max(c["cellcache.gets"], 1), "fraction")
	for _, enc := range []string{shard.EncodingJSON, shard.EncodingBinary} {
		m.set("shard.bytes_per_cell."+enc, c["shard.bytes."+enc]/max(c["shard.cells."+enc], 1), "bytes")
	}
}

// verify checks the merged file and returns the digest of its json
// encoding — byte-identical, every op, to the fill run's file.
func (r *rerender) verify() (string, error) {
	f, err := shard.Decode(r.want)
	if err != nil {
		return "", err
	}
	return checkedDigest(f, r.p, shard.EncodingJSON)
}

func (r *rerender) close() error { return nil }
