package experiment

// Dispatch-facing cache entry points: CachedShard answers "is this whole
// shard already in the cache?" so a dispatch driver can journal it as
// cached instead of queueing a worker, and DepositFile feeds a validated
// worker output back into the cache so later runs — wider grids, more
// shards, a re-render — start from a warm store. Both speak the same key
// derivation as the engine's frontier evaluation (cacheKey), so every
// run path shares one namespace.

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
// builds them.
func CachedShard(cache *cellcache.Store, selection string, p ShardParams, shards, index int) (*shard.File, bool, error) {
	if _, err := shard.NewPlan(shards, index); err != nil {
		return nil, false, err
	}
	s, err := newSelectionFile(selection, p, 1, shards, index)
	if err != nil {
		return nil, false, err
	}
	return s.cached(cache)
}

// cached fills the file purely from the cache (see CachedShard and
// CachedBatch).
func (s *selectionFile) cached(cache *cellcache.Store) (*shard.File, bool, error) {
	if !SelectionReproducible(s.f.Selection) {
		// Non-reproducible cells are never cached, so the cache can
		// never answer for them — a fresh measurement is required.
		return nil, false, nil
	}
	ok, err := s.fill(func(e Experiment, g shard.Grid, sel CellSelector) ([]shard.Cell, bool, error) {
		key, err := cacheKey(e, s.rc)
		if err != nil {
			return nil, false, err
		}
		codec := payloadCodec(e)
		// Non-nil even when the file owns no cell of this grid, so the
		// encoded file matches a computed one's ("[]", never "null").
		cells := []shard.Cell{}
		for o := 0; o < g.Points; o++ {
			for i := 0; i < g.Systems; i++ {
				if !sel(o, i) {
					continue
				}
				c, hit := cachedCell(cache, codec, key, o, i, e.CellSeed(s.rc, o, i))
				if !hit {
					return nil, false, nil
				}
				cells = append(cells, c)
			}
		}
		return cells, true, nil
	})
	if err != nil || !ok {
		return nil, false, err
	}
	return s.f, true, nil
}

// DepositFile deposits every cell of a shard (or merged) file into the
// cache under the run's key for params p, each as its packed record.
// Runs whose recorded payload version differs from the registered
// codec's — files written by an older or newer build — are skipped rather
// than deposited under a layout they do not carry; runs sharing a cell
// key (Figures 6 and 7) deposit once.
// Callers pass files they have validated (dispatch validates before
// merging); the recorded seeds are stored as-is, and a wrong one can
// never be served — Get re-checks the seed on every read.
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
		for _, c := range r.Cells {
			w := &shard.ColumnWriter{}
			if err := codec.Pack(w, c.Data); err != nil {
				return fmt.Errorf("experiment: run %q cell (%d,%d): %w", r.Experiment, c.Point, c.System, err)
			}
			if err := cache.Put(key, c.Point, c.System, c.Seed, w.Bytes()); err != nil {
				return err
			}
		}
	}
	return nil
}
