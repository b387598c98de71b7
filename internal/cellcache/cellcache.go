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
// Layout: <dir>/<hh>/<hash>/<digest>.pack, where hash is the hex SHA-256
// of the (cell key, params, payload version) tuple and hh its first two
// digits (a fan-out level, keeping directories small). Each Put writes
// the cells it deposits as one immutable pack (pack.go) named by its own
// content digest: an index of (point, system, seed, record length)
// followed by the cells' payloads, each packed as the v2 shard record of
// the experiment's payload codec. Load reads every pack under a key once
// and answers per-cell lookups from memory; a Put that finds
// compactAt packs under its key merges them into one. Anything that fails
// a check — unreadable file, truncated or bit-rotted pack, a per-cell
// entry left by an older build, a seed mismatch — is a miss, never an
// error: the caller recomputes, and its next Put deposits the cells
// again. Packs are written through a temp file and an atomic rename and
// removed only once a pack holding their cells has been renamed in, so
// concurrent readers and writers (racing dispatch workers, parallel runs
// sharing one store) see complete packs and never lose a deposited cell.
package cellcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
)

// Store is one on-disk cache directory. The zero value is unusable; open
// stores with Open. A Store is safe for concurrent use by any number of
// goroutines and processes sharing the directory.
type Store struct {
	dir                     string
	hits, misses, packReads atomic.Uint64
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
// deposit is now one pack of packed records, so SetEncoding changes
// nothing; it still rejects unknown names.
//
// Deprecated: the store has a single format; drop the call.
func (s *Store) SetEncoding(encoding string) error {
	switch encoding {
	case "", EncodingJSON, EncodingBinary:
		return nil
	}
	return fmt.Errorf("cellcache: unknown encoding %q (want %q or %q)", encoding, EncodingJSON, EncodingBinary)
}

// Key addresses one run's cell namespace: all cells of one experiment
// grid under one parameterisation and payload layout share a Key, and
// individual cells are located by their grid path (point, system). A Key
// is comparable, so callers can memoise Loads by it.
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

// compactAt is the pack count at which a Put merges its key's packs into
// one. It bounds how many files a Load reads per key (at most compactAt
// plus one per concurrent writer) against how often a deposit rewrites
// the cells already there (once every compactAt Puts).
const compactAt = 8

// loadAttempts bounds how often Load lists a key directory again when a
// pack it listed was removed by a concurrent compaction before it could
// be read.
const loadAttempts = 8

const packSuffix = ".pack"

func (s *Store) keyDir(k Key) string {
	return filepath.Join(s.dir, k.hash[:2], k.hash[2:])
}

// packNames lists the packs in a key directory; a directory that does
// not exist holds none. Temp files and retired per-cell entries are not
// packs.
func packNames(dir string) []string {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, de := range des {
		if name := de.Name(); strings.HasSuffix(name, packSuffix) && !strings.HasPrefix(name, ".") {
			names = append(names, name)
		}
	}
	return names
}

// View is what one Load read of a key: the cells of every valid pack
// under it at that moment. A View never changes and never reads the disk
// again; load the key again to see later deposits.
type View struct {
	store *Store
	packs [][]Entry
}

// Load reads every pack under k once and returns the view that answers
// the key's per-cell lookups. It never fails: an absent key, an
// unreadable pack or one that fails its checks contributes no cells, so
// the lookups it would have answered miss. A pack removed by a
// concurrent compaction between listing and reading makes Load list the
// directory again and read the packs it has not read yet — among them
// the compacted pack that holds the vanished one's cells, renamed in
// before the removal.
func (s *Store) Load(k Key) *View {
	dir := s.keyDir(k)
	v := &View{store: s}
	var read []string
	for range loadAttempts {
		vanished := false
		for _, name := range packNames(dir) {
			if slices.Contains(read, name) {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if errors.Is(err, fs.ErrNotExist) {
				vanished = true
				continue
			}
			read = append(read, name)
			if err != nil {
				continue
			}
			s.packReads.Add(1)
			if entries, ok := decodePack(raw); ok {
				v.packs = append(v.packs, entries)
			}
		}
		if !vanished {
			break
		}
	}
	return v
}

// Get returns the packed payload record of cell (point, system), or
// (nil, false) on a miss. seed is the derived sub-seed the caller's run
// would record for the cell; an entry whose recorded seed differs is a
// miss — the cache recomputes, it never guesses.
func (v *View) Get(point, system int, seed int64) ([]byte, bool) {
	want := Entry{Point: point, System: system}
	for _, entries := range v.packs {
		if i, found := slices.BinarySearchFunc(entries, want, compareEntries); found && entries[i].Seed == seed {
			v.store.hits.Add(1)
			return entries[i].Record, true
		}
	}
	v.store.misses.Add(1)
	return nil, false
}

// Put deposits the given cells under k as one pack. The write is atomic
// (temp file + rename) and the pack is named by its content digest, so
// concurrent writers of the same cells race benignly: their records are
// identical by the determinism invariant, and so are their packs. When
// the key already holds compactAt packs, Put writes one pack holding the
// union of every valid pack and its own cells (its own win where both
// hold a cell) and only then removes the packs it merged. A cell given
// more than once keeps its last entry.
func (s *Store) Put(k Key, entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	for _, e := range entries {
		if e.Point < 0 || e.System < 0 || e.Point > math.MaxInt32 || e.System > math.MaxInt32 {
			return fmt.Errorf("cellcache: cell (%d,%d) out of range", e.Point, e.System)
		}
	}
	dir := s.keyDir(k)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cellcache: %w", err)
	}
	var merged []string
	if names := packNames(dir); len(names) >= compactAt {
		var union []Entry
		for _, name := range names {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				// Gone: a concurrent compaction merged it into a pack
				// of its own. Unreadable: leave it for a later Put.
				continue
			}
			if old, ok := decodePack(raw); ok {
				union = append(union, old...)
			}
			// A pack that fails its checks can never be read; dropping
			// it with the merged ones loses nothing.
			merged = append(merged, name)
		}
		entries = append(union, entries...)
	}
	raw := encodePack(canonical(entries))
	name, err := writePack(dir, raw)
	if err != nil {
		return err
	}
	for _, old := range merged {
		if old != name {
			os.Remove(filepath.Join(dir, old))
		}
	}
	return nil
}

// writePack writes raw into dir under its content name, atomically.
func writePack(dir string, raw []byte) (string, error) {
	name := hex.EncodeToString(raw[len(raw)-sumSize:]) + packSuffix
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return "", fmt.Errorf("cellcache: %w", err)
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("cellcache: write pack: %w", werr)
	}
	return name, nil
}

// Stats is the store's tally since Open: per-cell lookups (Hits, Misses)
// and the pack files Load read (PackReads).
type Stats struct {
	Hits, Misses, PackReads uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before the first lookup.
func (st Stats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns the tally so far (monotonic; safe to read concurrently
// with lookups).
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), PackReads: s.packReads.Load()}
}
