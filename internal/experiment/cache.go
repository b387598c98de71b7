package experiment

// Dispatch-facing cache entry points: CachedShard answers "is this whole
// shard already in the cache?" so a dispatch driver can journal it as
// cached instead of queueing a worker, and DepositFile feeds a validated
// worker output back into the cache so later runs — wider grids, more
// shards, a re-render — start from a warm store. A probe walks a unit's
// cells through the same loop a computing run does (unitCells), and
// every path derives its keys through cacheKey and packs its records
// through packEntry, so every run path shares one namespace.

import (
	"encoding/json"
	"fmt"

	"repro/internal/cellcache"
	"repro/internal/shard"
)

// CachedShard builds shard index of shards for the selection purely from
// the cache — no cell is computed. It returns ok=false (with a nil file)
// as soon as any owned cell is absent, corrupt or recorded under a
// different seed; a true return carries a file byte-identical to what
// RunShard would produce, because every payload was deposited by an
// earlier run of the same deterministic cell computation and the grid,
// params and run layout are rebuilt from the registry exactly as RunShard
// builds them. Each cache key the selection touches is loaded once.
func CachedShard(cache *cellcache.Store, selection string, p ShardParams, shards, index int) (*shard.File, bool, error) {
	return NewCacheProbe(cache).Shard(selection, p, shards, index)
}

// CacheProbe answers CachedShard questions, and their cell-batch
// counterpart Batch, for many units of one run while loading each cache
// key at most once: the first probe that needs a key loads it, and every
// later probe reads that view. A probe therefore sees the cache as it
// stood when it first loaded each key, never later deposits; make a new
// one for a fresh look. A CacheProbe is not safe for concurrent use.
type CacheProbe struct {
	cache *cellcache.Store
	views map[cellcache.Key]*cellcache.View
}

// NewCacheProbe returns a probe over cache. A nil cache gives a nil
// probe, which holds no cell.
func NewCacheProbe(cache *cellcache.Store) *CacheProbe {
	if cache == nil {
		return nil
	}
	return &CacheProbe{cache: cache, views: make(map[cellcache.Key]*cellcache.View)}
}

// view returns k's view, loading it on first use.
func (cp *CacheProbe) view(k cellcache.Key) *cellcache.View {
	v, ok := cp.views[k]
	if !ok {
		v = cp.cache.Load(k)
		cp.views[k] = v
	}
	return v
}

// Shard is CachedShard over the probe's views.
func (cp *CacheProbe) Shard(selection string, p ShardParams, shards, index int) (*shard.File, bool, error) {
	s, err := newSelectionFile(selection, p, 1, shards, index)
	if err != nil {
		return nil, false, err
	}
	return s.cached(cp)
}

// Batch builds a cell batch (see RunBatchCached) purely from the probe's
// views, like Shard: ok=false as soon as any listed cell is absent, and
// otherwise a file byte-identical to what RunBatchCached would produce
// for the same cells.
func (cp *CacheProbe) Batch(selection string, p ShardParams, cells [][]int) (*shard.File, bool, error) {
	s, err := newBatchFile(selection, p, 1, cells)
	if err != nil {
		return nil, false, err
	}
	return s.cached(cp)
}

// cached fills the file purely from the probe's views.
func (s *selectionFile) cached(cp *CacheProbe) (*shard.File, bool, error) {
	if !SelectionReproducible(s.f.Selection) {
		// Non-reproducible cells are never cached, so the cache can
		// never answer for them — a fresh measurement is required.
		return nil, false, nil
	}
	if ok, err := s.fill(cp, false); err != nil || !ok {
		return nil, false, err
	}
	return s.f, true, nil
}

// packEntry packs a cell into the record the cache stores for it.
func packEntry(codec shard.PayloadCodec, c shard.Cell) (cellcache.Entry, error) {
	w := &shard.ColumnWriter{}
	err := codec.Pack(w, c.Data)
	return cellcache.Entry{Point: c.Point, System: c.System, Seed: c.Seed, Record: w.Bytes()}, err
}

// DepositFile deposits every cell of a shard (or merged) file into the
// cache under the run's key for params p, each as its packed record and
// one Put — one pack — per key.
// Runs whose recorded payload version differs from the registered
// codec's — files written by an older or newer build — are skipped rather
// than deposited under a layout they do not carry; runs sharing a cell
// key (Figures 6 and 7) deposit once.
// Callers pass files they have validated (dispatch validates before
// merging); the recorded seeds are stored as-is, and a wrong one can
// never be served — every lookup re-checks the seed.
func DepositFile(cache *cellcache.Store, f *shard.File, p ShardParams) error {
	params, err := json.Marshal(p.Normalised())
	if err != nil {
		return fmt.Errorf("experiment: encode params: %w", err)
	}
	seen := make(map[string]bool)
	for _, r := range f.Runs {
		e, ok := Lookup(r.Experiment)
		if !ok {
			return fmt.Errorf("experiment: %w %q in shard file", ErrUnknownExperiment, r.Experiment)
		}
		if r.PayloadVersion != e.Codec().Version {
			continue
		}
		if !Reproducible(e) {
			// Depositing a host measurement would let a later run serve
			// it as if it were this host's; refuse silently, like the
			// version skip above.
			continue
		}
		ck := e.CellKey()
		if seen[ck] {
			continue
		}
		seen[ck] = true
		key := cellcache.RunKey(ck, params, e.Codec().Version)
		codec := payloadCodec(e)
		entries := make([]cellcache.Entry, len(r.Cells))
		for j, c := range r.Cells {
			if entries[j], err = packEntry(codec, c); err != nil {
				return fmt.Errorf("experiment: run %q cell (%d,%d): %w", r.Experiment, c.Point, c.System, err)
			}
		}
		if err := cache.Put(key, entries); err != nil {
			return err
		}
	}
	return nil
}
