// Package cellcache is the content-addressed on-disk cell cache: every
// evaluated experiment grid cell can be deposited under the address
// derived from what determines its value — the experiment's cell-grid
// identity, the normalised run parameters and the payload layout version
// — and looked up by any later run of the same cells. Because cells are
// deterministic functions of that address (each one draws its randomness
// only from the derived seed over its grid path), a cache hit is
// byte-identical to recomputation; the recorded seed is re-checked on
// every read, so an entry written under a different seed derivation can
// never be served.
//
// Layout: <dir>/<hh>/<hash>/<point>_<system>.json, where hash is the
// hex SHA-256 of the (cell key, params, payload version) tuple and hh its
// first two digits (a fan-out level, keeping directories small; the
// .json suffix is historical — the envelope magic, not the name,
// identifies the format). Each entry is one binary envelope (codec.go)
// holding the cell's derived seed, its payload packed as the v2 shard
// record of the experiment's payload codec, and a SHA-256 digest. Reads
// verify the magic, the digest and the expected seed; anything that fails
// — unreadable file, truncated envelope, an entry written by an older
// build in a retired envelope form, digest or seed mismatch — is a miss,
// never an error: the caller recomputes, and the next Put repairs the
// entry. Writes go through a temp file and an atomic rename, so
// concurrent readers and writers (racing dispatch workers, parallel runs
// sharing one store) see either a complete entry or none.
package cellcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Store is one on-disk cache directory. The zero value is unusable; open
// stores with Open. A Store is safe for concurrent use by any number of
// goroutines and processes sharing the directory.
type Store struct {
	dir    string
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Open opens (creating if needed) the cache rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cellcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Encoding names the retired per-store envelope choice still accepts.
const (
	EncodingJSON   = "json"
	EncodingBinary = "binary"
)

// SetEncoding used to select the envelope encoding Put writes. Every
// entry is now the one binary envelope holding the cell's packed record,
// so SetEncoding changes nothing; it still rejects unknown names.
//
// Deprecated: the store has a single envelope; drop the call.
func (s *Store) SetEncoding(encoding string) error {
	switch encoding {
	case "", EncodingJSON, EncodingBinary:
		return nil
	}
	return fmt.Errorf("cellcache: unknown encoding %q (want %q or %q)", encoding, EncodingJSON, EncodingBinary)
}

// Key addresses one run's cell namespace: all cells of one experiment
// grid under one parameterisation and payload layout share a Key, and
// individual cells are located by their grid path (point, system).
type Key struct {
	hash string
}

// String returns the key's hex address (for logs and tests).
func (k Key) String() string { return k.hash }

// RunKey derives the cache key for one experiment grid. cellKey is the
// experiment's CellKey (experiments sharing a grid — Figures 6 and 7 —
// share cache entries exactly as they share one cell computation), params
// is the canonical JSON of the normalised run parameters, and
// payloadVersion is the experiment codec's version: bumping it orphans
// the old entries, which is the invalidation story — stale layouts are
// never read, only left behind for a manual sweep of the directory.
func RunKey(cellKey string, params []byte, payloadVersion int) Key {
	h := sha256.New()
	// Length-prefixed fields: no concatenation of (cellKey, params) pairs
	// can collide with another spelling.
	fmt.Fprintf(h, "%d:%s|%d:", len(cellKey), cellKey, len(params))
	h.Write(params)
	fmt.Fprintf(h, "|v%d", payloadVersion)
	return Key{hash: hex.EncodeToString(h.Sum(nil))}
}

func (s *Store) cellPath(k Key, point, system int) string {
	return filepath.Join(s.dir, k.hash[:2], k.hash[2:], fmt.Sprintf("%d_%d.json", point, system))
}

// Get returns the packed payload record of cell (point, system) under k,
// or (nil, false) on a miss. seed is the derived sub-seed the caller's
// run would record for the cell; an entry whose recorded seed differs is
// a miss (and so is any unreadable, truncated, corrupt or retired-format
// entry — the cache recomputes, it never guesses).
func (s *Store) Get(k Key, point, system int, seed int64) ([]byte, bool) {
	raw, err := os.ReadFile(s.cellPath(k, point, system))
	if err == nil {
		if got, record, ok := decodeEnvelope(raw); ok && got == seed {
			s.hits.Add(1)
			return record, true
		}
	}
	s.misses.Add(1)
	return nil, false
}

// Put deposits the packed payload record of cell (point, system) under k
// with its derived seed. The write is atomic (temp file + rename):
// concurrent writers of the same cell race benignly — their records are
// identical by the determinism invariant, and the last rename wins.
func (s *Store) Put(k Key, point, system int, seed int64, record []byte) error {
	path := s.cellPath(k, point, system)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cellcache: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("cellcache: %w", err)
	}
	_, werr := tmp.Write(encodeEnvelope(seed, record))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cellcache: write cell (%d,%d): %w", point, system, werr)
	}
	return nil
}

// Stats is the store's hit/miss tally since Open.
type Stats struct {
	Hits, Misses uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before the first lookup.
func (st Stats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns the lookup tally so far (monotonic; safe to read
// concurrently with lookups).
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load()}
}
