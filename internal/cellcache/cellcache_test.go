package cellcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	data := json.RawMessage(`{"x":42}`)
	if err := s.Put(k, 3, 7, 99, data); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k, 3, 7, 99)
	if !ok {
		t.Fatal("miss after Put")
	}
	if string(got) != string(data) {
		t.Fatalf("got %s, want %s", got, data)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMisses(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	if _, ok := s.Get(k, 0, 0, 1); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, 0, 0, 1, json.RawMessage(`true`)); err != nil {
		t.Fatal(err)
	}
	// Wrong seed: the derivation changed, the entry must not be served.
	if _, ok := s.Get(k, 0, 0, 2); ok {
		t.Fatal("hit under a different seed")
	}
	// Other cell of the same run.
	if _, ok := s.Get(k, 0, 1, 1); ok {
		t.Fatal("hit on an absent cell")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if r := s.Stats().HitRate(); r != 0 {
		t.Fatalf("hit rate = %g", r)
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

// TestCorruptEntryIsMiss pins the trust model: a truncated or tampered
// entry is recomputed, never served.
func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	if err := s.Put(k, 1, 2, 5, json.RawMessage(`{"long":"payload with enough bytes to truncate"}`)); err != nil {
		t.Fatal(err)
	}
	path := s.cellPath(k, 1, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			// Flip a byte inside the payload, keeping the JSON well-formed.
			c[len(c)/2] ^= 0x01
			return c
		},
		"empty": func([]byte) []byte { return nil },
	} {
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(k, 1, 2, 5); ok {
			t.Fatalf("%s entry served", name)
		}
		// A fresh Put repairs the entry.
		if err := s.Put(k, 1, 2, 5, json.RawMessage(`"repaired"`)); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(k, 1, 2, 5); !ok || string(got) != `"repaired"` {
			t.Fatalf("after repair of %s: %q, %v", name, got, ok)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrent exercises racing readers and writers over one directory
// (run under -race in CI).
func TestConcurrent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	const cells, workers = 16, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < cells; c++ {
				want := json.RawMessage(fmt.Sprintf(`{"cell":%d}`, c))
				if got, ok := s.Get(k, c, 0, int64(c)); ok && string(got) != string(want) {
					t.Errorf("worker %d read wrong payload for cell %d: %s", w, c, got)
					return
				}
				if err := s.Put(k, c, 0, int64(c), want); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got, ok := s.Get(k, c, 0, int64(c)); !ok || string(got) != string(want) {
					t.Errorf("worker %d: cell %d after own Put: %q, %v", w, c, got, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// No temp droppings survive the writes.
	err = filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
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
