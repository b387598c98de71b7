package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cellcache"
	"repro/internal/shard"
)

// encoded renders a shard file to the exact bytes it would persist.
func encoded(t *testing.T, f *shard.File) []byte {
	t.Helper()
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openStore opens a cell cache rooted in dir.
func openStore(t *testing.T, dir string) *cellcache.Store {
	t.Helper()
	s, err := cellcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCacheWarmColdByteIdentical extends the registry-equivalence suite
// to the cell cache: for every registered grid experiment (the "all"
// selection records one run per experiment), the cold cached run, the
// warm cached run, and warm runs under a different shard decomposition
// all encode byte-identically to the uncached path — the cache is
// invisible in the output, visible only in the hit counters.
func TestCacheWarmColdByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := shardParamsFast()
	dir := t.TempDir()

	ref, err := RunShard(ExpAll, p, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := encoded(t, ref)

	cold := openStore(t, dir)
	coldFile, err := RunShardCached(ExpAll, p, 1, 1, 0, cold)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, coldFile), want) {
		t.Fatal("cold cached run differs from the uncached run")
	}
	if cold.Stats().Misses == 0 {
		t.Fatal("cold run recorded no misses: nothing was computed into the cache")
	}

	// Reopen for fresh counters: the warm run must compute nothing.
	warm := openStore(t, dir)
	warmFile, err := RunShardCached(ExpAll, p, 1, 1, 0, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, warmFile), want) {
		t.Fatal("warm cached run differs from the uncached run")
	}
	if st := warm.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Fatalf("warm run stats = %+v, want all hits", st)
	}

	// Cells are keyed by grid position, not shard decomposition: a 3-shard
	// warm run reuses the 1-shard run's entries and merges byte-identically.
	split := openStore(t, dir)
	files := make([]*shard.File, 3)
	for i := range files {
		if files[i], err = RunShardCached(ExpAll, p, 1, 3, i, split); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := shard.Merge(files)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, merged), want) {
		t.Fatal("3-shard warm merge differs from the uncached run")
	}
	if st := split.Stats(); st.Misses != 0 {
		t.Fatalf("re-sharded warm run recomputed %d cells", st.Misses)
	}
}

// TestCachedShardAndDeposit covers the dispatch driver's two cache
// hooks: DepositFile seeds a cache from a validated shard file, and
// CachedShard reassembles a shard byte-identically from a fully-warm
// cache — and reports a miss (never a partial file) when any cell is
// absent.
func TestCachedShardAndDeposit(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := shardParamsFast()

	// Empty cache: no file, no error.
	empty := openStore(t, t.TempDir())
	if f, ok, err := CachedShard(empty, ExpFig5, p, 1, 0); err != nil || ok || f != nil {
		t.Fatalf("empty cache returned %v, %v, %v", f, ok, err)
	}

	ref, err := RunShard(ExpFig5, p, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	store := openStore(t, t.TempDir())
	if err := DepositFile(store, ref, p); err != nil {
		t.Fatal(err)
	}
	got, ok, err := CachedShard(store, ExpFig5, p, 1, 0)
	if err != nil || !ok {
		t.Fatalf("warm CachedShard = %v, %v", ok, err)
	}
	if !bytes.Equal(encoded(t, got), encoded(t, ref)) {
		t.Fatal("cached shard differs from the computed shard")
	}

	// The deposited 1-shard file also serves any other decomposition.
	for i := 0; i < 3; i++ {
		want, err := RunShard(ExpFig5, p, 1, 3, i)
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := CachedShard(store, ExpFig5, p, 3, i)
		if err != nil || !ok {
			t.Fatalf("shard %d: CachedShard = %v, %v", i, ok, err)
		}
		if !bytes.Equal(encoded(t, got), encoded(t, want)) {
			t.Fatalf("shard %d: cached shard differs from the computed shard", i)
		}
	}

	// Remove one entry: the shard owning it must miss entirely.
	path := someEntry(t, store.Dir())
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 3; i++ {
		if _, ok, err := CachedShard(store, ExpFig5, p, 3, i); err != nil {
			t.Fatal(err)
		} else if ok {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("%d/3 shards served after deleting one entry, want 2", hits)
	}
}

// TestCacheCorruptEntryRecomputed: a truncated entry is silently
// recomputed, never trusted — the warm run stays byte-identical and the
// store self-heals the damaged file.
func TestCacheCorruptEntryRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := shardParamsFast()
	dir := t.TempDir()

	ref, err := RunShard(ExpFig5, p, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := encoded(t, ref)
	cold := openStore(t, dir)
	if _, err := RunShardCached(ExpFig5, p, 1, 1, 0, cold); err != nil {
		t.Fatal(err)
	}

	victim := someEntry(t, dir)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	warm := openStore(t, dir)
	got, err := RunShardCached(ExpFig5, p, 1, 1, 0, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, got), want) {
		t.Fatal("run over a corrupt cache differs from the uncached run")
	}
	if st := warm.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly the corrupt entry recomputed", st)
	}
	if repaired, err := os.ReadFile(victim); err != nil || len(repaired) <= len(data)/2 {
		t.Fatalf("entry not rewritten after recomputation (err=%v, %d bytes)", err, len(repaired))
	}
}

// TestRetiredCacheEntriesAreRecomputed: a store written before cells were
// cached as packed records — in either retired envelope, each carrying a
// valid digest and the right seed — is never mis-decoded. Every entry
// reads as a miss, the run stays byte-identical, and the recomputation
// repairs the store.
func TestRetiredCacheEntriesAreRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := shardParamsFast()
	ref, err := RunShard(ExpFig5, p, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := encoded(t, ref)
	byName := map[string]shard.Cell{}
	for _, c := range ref.Runs[0].Cells {
		byName[fmt.Sprintf("%d_%d.json", c.Point, c.System)] = c
	}
	retire := map[string]func(seed int64, payload []byte) []byte{
		"json": func(seed int64, payload []byte) []byte {
			return fmt.Appendf(nil, `{"seed":%d,"sha256":"%x","data":%s}`, seed, sha256.Sum256(payload), payload)
		},
		"binary": func(seed int64, payload []byte) []byte {
			sum := sha256.Sum256(payload)
			raw := binary.AppendVarint([]byte("\x89IOSC1\r\n"), seed)
			raw = binary.AppendUvarint(raw, uint64(len(payload)))
			return append(append(raw, payload...), sum[:]...)
		},
	}
	for form, encode := range retire {
		dir := t.TempDir()
		if _, err := RunShardCached(ExpFig5, p, 1, 1, 0, openStore(t, dir)); err != nil {
			t.Fatal(err)
		}
		entries := 0
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			c, ok := byName[d.Name()]
			if !ok {
				return fmt.Errorf("unexpected entry %s", path)
			}
			payload, err := json.Marshal(c.Data)
			if err != nil {
				return err
			}
			entries++
			return os.WriteFile(path, encode(c.Seed, payload), 0o644)
		})
		if err != nil || entries != len(byName) {
			t.Fatalf("%s: retired %d of %d entries (err=%v)", form, entries, len(byName), err)
		}
		for pass, wantMisses := range []int{entries, 0} {
			s := openStore(t, dir)
			got, err := RunShardCached(ExpFig5, p, 1, 1, 0, s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encoded(t, got), want) {
				t.Fatalf("%s pass %d: run over retired entries differs from the uncached run", form, pass)
			}
			if st := s.Stats(); st.Misses != uint64(wantMisses) {
				t.Fatalf("%s pass %d: stats = %+v, want %d misses", form, pass, st, wantMisses)
			}
		}
	}
}

// someEntry returns one cached cell entry file under dir (deterministic:
// the lexicographically first).
func someEntry(t *testing.T, dir string) string {
	t.Helper()
	var entries []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			entries = append(entries, path)
		}
		return err
	})
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries under %s (err=%v)", dir, err)
	}
	return entries[0]
}
