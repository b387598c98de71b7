package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cellcache"
	"repro/internal/exec"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/sched/fps"
	"repro/internal/sched/ga"
	"repro/internal/sched/gpiocp"
	"repro/internal/sched/staticsched"
	"repro/internal/shard"
	"repro/internal/taskmodel"
)

// sweep is sweep-cold: the "all" sweep split into round-robin shards, one
// shard per op, each computed into a cache that starts empty at every
// pass over the shards, then encoded binary and written — what
// "ioschedbench -cache-dir d -codec binary -shards K -shard-index i -out f"
// does per invocation. One closed-loop client per CPU claims the shards
// in order, each computing its shard serially: a single client with a
// CPU-wide pool would idle a CPU at the tail of every small shard.
type sweep struct {
	e env
	p experiment.ShardParams

	mu     sync.Mutex
	pass   int
	next   int
	cache  *cellcache.Store
	first  [][]byte // the first pass's shard files, by index
	differ error    // a later pass whose bytes differ from the first's
}

func sweepParams(e env, seed int64) experiment.ShardParams {
	return experiment.ShardParams{Seed: seed, Systems: e.sz.sweepSystems,
		GAPopulation: e.sz.sweepPop, GAGenerations: e.sz.sweepGens}
}

func setupSweep(ctx context.Context, e env) (instance, error) {
	s := &sweep{e: e, p: sweepParams(e, e.seed), first: make([][]byte, e.sz.sweepShards)}
	// Warm-up: one shard of a fixed-seed sweep into a throwaway cache, so
	// the first measured op pays no first-use cost and the measured cache
	// stays cold.
	warm, err := openBinaryCache(filepath.Join(e.dir, "warmup"))
	if err != nil {
		return nil, err
	}
	_, err = experiment.RunShardCached(experiment.ExpAll, sweepParams(e, 0), 1, e.sz.sweepShards, 0, warm)
	return s, err
}

// openBinaryCache opens a cell cache writing binary envelopes, as
// "-codec binary" makes the CLI's cache do.
func openBinaryCache(dir string) (*cellcache.Store, error) {
	c, err := cellcache.Open(dir)
	if err != nil {
		return nil, err
	}
	return c, c.SetEncoding(cellcache.EncodingBinary)
}

func (s *sweep) clients() int { return s.e.nproc }

// minOps covers at least one full pass: verify merges the first.
func (s *sweep) minOps() int { return max(s.e.sz.minOps, s.e.sz.sweepShards) }

// claim hands out the next shard, opening a fresh cache at each pass.
func (s *sweep) claim() (pass, index int, cache *cellcache.Store, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == 0 {
		if s.cache, err = openBinaryCache(filepath.Join(s.e.dir, fmt.Sprintf("pass%d", s.pass))); err != nil {
			return 0, 0, nil, err
		}
	}
	pass, index, cache = s.pass, s.next, s.cache
	if s.next++; s.next == s.e.sz.sweepShards {
		s.next, s.pass = 0, s.pass+1
	}
	return pass, index, cache, nil
}

func (s *sweep) step(ctx context.Context, p *phase) error {
	pass, i, cache, err := s.claim()
	if err != nil {
		return err
	}
	start := time.Now()
	root := p.tr.root("sweep.shard")
	var f *shard.File
	if p.tr == nil {
		f, err = experiment.RunShardCached(experiment.ExpAll, s.p, 1, s.e.sz.sweepShards, i, cache)
	} else {
		f, err = s.tracedShard(p, root, i, cache)
	}
	if err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	var data []byte
	if err := p.tr.do(root, "shard", "shard.encode_s.binary", func() (err error) {
		data, err = f.EncodeAs(shard.EncodingBinary)
		return err
	}); err != nil {
		return err
	}
	if err := p.tr.do(root, "shard", "shard.write_s", func() error {
		return os.WriteFile(filepath.Join(s.e.dir, fmt.Sprintf("shard%d.bin", i)), data, 0o644)
	}); err != nil {
		return err
	}
	p.tr.end(root)
	p.op(time.Since(start))
	p.delivered(f.CellCount(), 1, 0)
	p.count("shard.bytes.binary", float64(len(data)))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.first[i] == nil {
		s.first[i] = data
	} else if !bytes.Equal(s.first[i], data) && s.differ == nil {
		s.differ = fmt.Errorf("pass %d shard %d differs from the first pass's bytes", pass, i)
	}
	return nil
}

// tracedShard builds the same file RunShardCached builds, with the cell
// computation of each cell key (uncached) and the cache deposit timed as
// separate layer calls.
func (s *sweep) tracedShard(p *phase, root, index int, cache *cellcache.Store) (*shard.File, error) {
	tr := p.tr
	plan, err := shard.NewPlan(s.e.sz.sweepShards, index)
	if err != nil {
		return nil, err
	}
	names, err := experiment.SelectionRuns(experiment.ExpAll)
	if err != nil {
		return nil, err
	}
	norm := s.p.Normalised()
	params, err := json.Marshal(norm)
	if err != nil {
		return nil, err
	}
	rc := norm.Context(1)
	f := &shard.File{Version: shard.FormatVersion, Selection: experiment.ExpAll,
		Shards: s.e.sz.sweepShards, Index: index, Params: params}
	byKey := map[string][]shard.Cell{}
	puts := 0
	for _, name := range names {
		e, _ := experiment.Lookup(name)
		g, err := e.Grid(rc)
		if err != nil {
			return nil, err
		}
		cells, ok := byKey[e.CellKey()]
		if !ok {
			if err := tr.do(root, "experiment", "experiment.compute_s."+e.CellKey(), func() (err error) {
				cells, _, err = experiment.RunCells(name, rc, plan.Selector(g.Systems))
				return err
			}); err != nil {
				return nil, err
			}
			byKey[e.CellKey()] = cells
			puts += len(cells)
		}
		f.Runs = append(f.Runs, shard.Run{Experiment: name, Grid: g, PayloadVersion: e.Codec().Version, Cells: cells})
	}
	err = tr.do(root, "cellcache", "cellcache.put_s", func() error { return experiment.DepositFile(cache, f, s.p) })
	p.count("cellcache.puts", float64(puts))
	return f, err
}

func (s *sweep) report(p *phase, m metrics) {
	if p.tr != nil {
		m.set("experiment.cells", float64(p.cells), "count")
		m.set("cellcache.puts", p.counts["cellcache.puts"], "count")
	}
	m.set("shard.bytes_per_cell.binary", p.counts["shard.bytes.binary"]/float64(max(p.cells, 1)), "bytes")
}

// verify merges the first pass — a complete cover — and checks it is a
// valid file of exactly this run; every later pass must have repeated the
// first pass byte for byte. The digest is that of the merged file,
// encoded binary: the file "ioschedbench -cache-dir d -codec binary -out
// f" writes for the same params.
func (s *sweep) verify() (string, error) {
	if s.differ != nil {
		return "", s.differ
	}
	files := make([]*shard.File, len(s.first))
	for i, data := range s.first {
		if data == nil {
			return "", fmt.Errorf("shard %d of the first pass never ran", i)
		}
		f, err := shard.Decode(data)
		if err != nil {
			return "", fmt.Errorf("shard %d: %w", i, err)
		}
		files[i] = f
	}
	merged, err := shard.Merge(files)
	if err != nil {
		return "", err
	}
	return checkedDigest(merged, s.p, shard.EncodingBinary)
}

func (s *sweep) close() error { return nil }

// checkedDigest validates a merged file against the run's params and
// returns the SHA-256 of its encoding.
func checkedDigest(f *shard.File, p experiment.ShardParams, encoding string) (string, error) {
	if err := f.ValidateCells(); err != nil {
		return "", err
	}
	if err := experiment.ValidateRuns(f, p); err != nil {
		return "", err
	}
	data, err := f.EncodeAs(encoding)
	if err != nil {
		return "", err
	}
	return sha256hex(data), nil
}

func sha256hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// streamProbe is the sched probe's private seed stream, disjoint from the
// experiments' tags.
const streamProbe int64 = 1001

// probeSched times each scheduler on its own: probeSystems generated
// systems per utilisation, serially, with the sweep's GA budget.
func probeSched(e env, m metrics) error {
	opts := ga.DefaultOptions()
	opts.Population, opts.Generations, opts.Parallelism = e.sz.sweepPop, e.sz.sweepGens, 1
	scheduleAll := func(s sched.Scheduler) func(*taskmodel.TaskSet, int64) error {
		return func(ts *taskmodel.TaskSet, _ int64) error { _, err := sched.ScheduleAll(ts, s); return err }
	}
	algs := []struct {
		name string
		run  func(ts *taskmodel.TaskSet, seed int64) error
	}{
		{"fps_offline", scheduleAll(fps.Offline{})},
		{"gpiocp", scheduleAll(gpiocp.Scheduler{})},
		{"static", scheduleAll(staticsched.New(staticsched.Options{}))},
		{"ga", func(ts *taskmodel.TaskSet, seed int64) error {
			o := opts
			o.Seed = seed
			for _, jobs := range ts.JobsByDevice() {
				if _, err := ga.Solve(jobs, o); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	spent := make([]time.Duration, len(algs))
	n := 0
	for ui, u := range []float64{0.3, 0.5, 0.7} {
		for k := 0; k < e.sz.probeSystems; k++ {
			ts, err := gen.PaperConfig().System(exec.RNG(e.seed, streamProbe, int64(ui), int64(k)), u)
			if err != nil {
				return err
			}
			n++
			for ai, a := range algs {
				start := time.Now()
				err := a.run(ts, exec.DeriveSeed(e.seed, streamProbe, int64(ui), int64(k), 1))
				spent[ai] += time.Since(start)
				if err != nil && !errors.Is(err, sched.ErrInfeasible) {
					return fmt.Errorf("sched probe %s: %w", a.name, err)
				}
			}
		}
	}
	for ai, a := range algs {
		m.set("sched."+a.name+".ms_per_system", ms(spent[ai])/float64(n), "ms")
	}
	return nil
}
