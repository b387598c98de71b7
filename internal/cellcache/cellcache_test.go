package cellcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// open opens a store in a fresh directory.
func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cells returns entries for cells (0, first) .. (0, first+n-1), each
// with a record and seed derived from its system.
func cells(first, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		sys := first + i
		out[i] = Entry{Point: 0, System: sys, Seed: int64(sys) * 7, Record: fmt.Appendf(nil, "record of cell %d", sys)}
	}
	return out
}

// packFiles lists the pack files under k.
func packFiles(t *testing.T, s *Store, k Key) []string {
	t.Helper()
	names := packNames(s.keyDir(k))
	for i, name := range names {
		names[i] = filepath.Join(s.keyDir(k), name)
	}
	return names
}

// served counts the cells of want the view serves, and reports any it
// serves with a record other than the deposited one.
func served(v *View, want []Entry) (hits int, err error) {
	for _, e := range want {
		got, ok := v.Get(e.Point, e.System, e.Seed)
		if !ok {
			continue
		}
		if !bytes.Equal(got, e.Record) {
			return hits, fmt.Errorf("cell (%d,%d) served %q, deposited %q", e.Point, e.System, got, e.Record)
		}
		hits++
	}
	return hits, nil
}

// checkView is served, failing the test on a wrong record.
func checkView(t *testing.T, v *View, want []Entry) (hits int) {
	t.Helper()
	hits, err := served(v, want)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

func TestRoundTrip(t *testing.T) {
	s := open(t)
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	want := []Entry{
		{Point: 3, System: 7, Seed: -99, Record: []byte{0x1f, 0x00, 0xff, '{'}},
		{Point: 0, System: 1, Seed: 5, Record: nil},
		{Point: 3, System: 2, Seed: 1 << 40, Record: []byte(`{"x":42}`)},
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	files := packFiles(t, s, k)
	if len(files) != 1 {
		t.Fatalf("one Put wrote %d packs, want 1", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, packMagic[:]) {
		t.Fatalf("pack does not open with the pack magic: % x", raw)
	}
	v := s.Load(k)
	if hits := checkView(t, v, want); hits != len(want) {
		t.Fatalf("%d of %d cells served after Put", hits, len(want))
	}
	if st := s.Stats(); st.Hits != 3 || st.Misses != 0 || st.PackReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Depositing the same cells again writes the same content-addressed
	// pack, not a second one.
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if files := packFiles(t, s, k); len(files) != 1 {
		t.Fatalf("re-depositing identical cells left %d packs", len(files))
	}
}

func TestMisses(t *testing.T) {
	s := open(t)
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	if _, ok := s.Load(k).Get(0, 0, 1); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, []Entry{{Point: 0, System: 0, Seed: 1, Record: []byte(`true`)}}); err != nil {
		t.Fatal(err)
	}
	v := s.Load(k)
	// Wrong seed: the derivation changed, the entry must not be served.
	if _, ok := v.Get(0, 0, 2); ok {
		t.Fatal("hit under a different seed")
	}
	// Other cell of the same run.
	if _, ok := v.Get(0, 1, 1); ok {
		t.Fatal("hit on an absent cell")
	}
	// Same cell under another key.
	if _, ok := s.Load(RunKey("fig5", []byte(`{"seed":2}`), 1)).Get(0, 0, 1); ok {
		t.Fatal("hit under another key")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if r := s.Stats().HitRate(); r != 0 {
		t.Fatalf("hit rate = %g", r)
	}
	// An empty deposit writes nothing.
	k2 := RunKey("fig5", []byte(`{"seed":3}`), 1)
	if err := s.Put(k2, nil); err != nil {
		t.Fatal(err)
	}
	if files := packFiles(t, s, k2); len(files) != 0 {
		t.Fatalf("empty Put wrote %v", files)
	}
}

func TestPutRejectsNegativeCells(t *testing.T) {
	s := open(t)
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	if err := s.Put(k, []Entry{{Point: -1, System: 0}}); err == nil {
		t.Fatal("negative point accepted")
	}
}

func TestKeySeparatesRuns(t *testing.T) {
	keys := map[string]bool{}
	for _, tc := range []struct {
		cellKey string
		params  string
		version int
	}{
		{"fig5", `{"seed":1}`, 1},
		{"fig5", `{"seed":2}`, 1},
		{"fig5", `{"seed":1}`, 2},
		{"figq", `{"seed":1}`, 1},
		// Length-prefixing: shifting bytes between the fields must not
		// collide.
		{"fig5x", `{"seed":1}`, 1},
		{"fig5", `x{"seed":1}`, 1},
	} {
		k := RunKey(tc.cellKey, []byte(tc.params), tc.version)
		if keys[k.String()] {
			t.Fatalf("key collision at %+v", tc)
		}
		keys[k.String()] = true
	}
}

// TestSeedsAcrossPacks: two packs holding one cell under different seeds
// each serve their own record to their own seed, and compaction keeps
// the newest deposit.
func TestSeedsAcrossPacks(t *testing.T) {
	s := open(t)
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	older := Entry{Point: 1, System: 1, Seed: 10, Record: []byte("old derivation")}
	newer := Entry{Point: 1, System: 1, Seed: 20, Record: []byte("new derivation")}
	for _, e := range []Entry{older, newer} {
		if err := s.Put(k, []Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if hits := checkView(t, s.Load(k), []Entry{older, newer}); hits != 2 {
		t.Fatalf("%d of 2 seeds served", hits)
	}
	for i := 0; i < compactAt; i++ {
		if err := s.Put(k, cells(100+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(k, []Entry{newer}); err != nil {
		t.Fatal(err)
	}
	v := s.Load(k)
	if _, ok := v.Get(1, 1, older.Seed); ok {
		t.Fatal("compaction kept the older deposit of a cell over the newer")
	}
	if hits := checkView(t, v, []Entry{newer}); hits != 1 {
		t.Fatal("compaction lost the newer deposit")
	}
}

// TestCompaction: the compactAt-th pack under a key triggers a Put that
// merges every pack and its own cells into one; no cell is lost and the
// merged packs are gone.
func TestCompaction(t *testing.T) {
	s := open(t)
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	var want []Entry
	for i := 0; i < compactAt; i++ {
		batch := cells(3*i, 3)
		want = append(want, batch...)
		if err := s.Put(k, batch); err != nil {
			t.Fatal(err)
		}
		if n := len(packFiles(t, s, k)); n != i+1 {
			t.Fatalf("after %d Puts: %d packs", i+1, n)
		}
	}
	// A pack that fails its checks is dropped by the compaction too.
	torn := filepath.Join(s.keyDir(k), "torn"+packSuffix)
	if err := os.WriteFile(torn, packMagic[:], 0o644); err != nil {
		t.Fatal(err)
	}
	batch := cells(3*compactAt, 3)
	want = append(want, batch...)
	if err := s.Put(k, batch); err != nil {
		t.Fatal(err)
	}
	if files := packFiles(t, s, k); len(files) != 1 {
		t.Fatalf("after compaction: %d packs, want 1", len(files))
	}
	if hits := checkView(t, s.Load(k), want); hits != len(want) {
		t.Fatalf("%d of %d cells served after compaction", hits, len(want))
	}
}

// TestCorruptEntryIsMiss is the torn-pack sweep: it truncates a pack at
// every byte offset and flips every byte in turn. Load never panics, never serves a record other
// than the deposited one, and an intact pack beside the damaged one keeps
// serving its cells.
func TestCorruptEntryIsMiss(t *testing.T) {
	s := open(t)
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	intact, victim := cells(0, 2), cells(2, 3)
	if err := s.Put(k, intact); err != nil {
		t.Fatal(err)
	}
	before := packFiles(t, s, k)
	if err := s.Put(k, victim); err != nil {
		t.Fatal(err)
	}
	var path string
	for _, p := range packFiles(t, s, k) {
		if p != before[0] {
			path = p
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, mutated []byte) {
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		v := s.Load(k)
		if hits := checkView(t, v, intact); hits != len(intact) {
			t.Fatalf("%s: the intact pack served %d of %d cells", what, hits, len(intact))
		}
		checkView(t, v, victim)
	}
	for n := 0; n < len(raw); n++ {
		check(fmt.Sprintf("truncated at %d", n), raw[:n])
	}
	for i := range raw {
		c := bytes.Clone(raw)
		c[i] ^= 0xff
		check(fmt.Sprintf("byte %d flipped", i), c)
	}
	check("trailing byte", append(bytes.Clone(raw), 0))
	// A fresh Put of the same cells rewrites the pack under its name.
	if err := s.Put(k, victim); err != nil {
		t.Fatal(err)
	}
	if hits := checkView(t, s.Load(k), victim); hits != len(victim) {
		t.Fatalf("re-deposit repaired %d of %d cells", hits, len(victim))
	}
}

// TestRetiredEnvelopesAreMisses: per-cell entries left by older builds —
// the JSON envelope and the IOSC1 and IOSC2 binary envelopes, each
// well-formed in its own format — are never read: they are misses, a
// Put beside them deposits a pack that serves the cells, and they are
// left in place for a manual sweep.
func TestRetiredEnvelopesAreMisses(t *testing.T) {
	s := open(t)
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	dir := s.keyDir(k)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	retired := retiredEntries(7, `{"offline":true,"online":false}`, []byte{0x01})
	for i, raw := range retired {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("0_%d.json", i)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	v := s.Load(k)
	for i := range retired {
		if got, ok := v.Get(0, i, 7); ok {
			t.Fatalf("retired entry %d served as record % x", i, got)
		}
	}
	want := []Entry{{Point: 0, System: 0, Seed: 7, Record: []byte{0x01}}, {Point: 0, System: 1, Seed: 7}, {Point: 0, System: 2, Seed: 7}}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if hits := checkView(t, s.Load(k), want); hits != len(want) {
		t.Fatalf("%d of %d cells served beside retired entries", hits, len(want))
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != len(retired)+1 {
		t.Fatalf("key directory holds %d files, want the %d retired entries and one pack", len(des), len(retired))
	}
}

// TestConcurrent races writers depositing disjoint cells of one
// key past the compaction threshold against readers loading it in a loop
// (run under -race in CI). No Load serves a wrong record or loses a cell
// an earlier Load served, every cell is served once the writers are done, and the directory ends with at most
// compactAt + writers packs and no temp files.
func TestConcurrent(t *testing.T) {
	s := open(t)
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	const writers, puts, perPut, readers = 4, 3 * compactAt, 2, 3
	all := cells(0, writers*puts*perPut)
	done := make(chan struct{})
	var wg, rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			seen := make([]bool, len(all))
			for {
				select {
				case <-done:
					return
				default:
				}
				v := s.Load(k)
				if _, err := served(v, all); err != nil {
					t.Error(err)
					return
				}
				// A cell once served stays served: a compaction
				// renames its pack in before removing the merged
				// ones, and Load re-lists when a pack vanishes.
				for i, e := range all {
					_, ok := v.Get(e.Point, e.System, e.Seed)
					if seen[i] && !ok {
						t.Errorf("cell %d was served, then missed", i)
						return
					}
					seen[i] = ok
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < puts; p++ {
				first := (w*puts + p) * perPut
				if err := s.Put(k, all[first:first+perPut]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if hits := checkView(t, s.Load(k), all); hits != len(all) {
		t.Fatalf("%d of %d cells served after every Put returned", hits, len(all))
	}
	if n := len(packFiles(t, s, k)); n > compactAt+writers {
		t.Fatalf("%d packs left, want at most %d", n, compactAt+writers)
	}
	err := filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), ".put-") {
			t.Errorf("leftover temp file %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// TestSetEncodingRejectsUnknown: the deprecated shim still validates
// its argument and otherwise changes nothing about what Put writes.
func TestSetEncodingRejectsUnknown(t *testing.T) {
	s := open(t)
	if err := s.SetEncoding("v3"); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	for i, enc := range []string{"", EncodingJSON, EncodingBinary} {
		if err := s.SetEncoding(enc); err != nil {
			t.Fatalf("SetEncoding(%q): %v", enc, err)
		}
		k := RunKey("fig5", []byte(`{"seed":1}`), i)
		if err := s.Put(k, cells(0, 1)); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(packFiles(t, s, k)[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, encodePack(cells(0, 1))) {
			t.Fatalf("SetEncoding(%q) changed what Put writes", enc)
		}
	}
}
