package cellcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	record := []byte{0x1f, 0x00, 0xff, '{'}
	if err := s.Put(k, 3, 7, -99, record); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.cellPath(k, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, envelopeMagic[:]) {
		t.Fatalf("entry does not open with the envelope magic: % x", raw)
	}
	got, ok := s.Get(k, 3, 7, -99)
	if !ok || !bytes.Equal(got, record) {
		t.Fatalf("Get = % x, %v; want % x", got, ok, record)
	}
	// Wrong seed is still a miss.
	if _, ok := s.Get(k, 3, 7, 99); ok {
		t.Fatal("entry served under a different seed")
	}
}

// retiredEntries are the two forms older builds wrote for one cell: the
// JSON envelope and the binary envelope with a compact-JSON body. Both
// carry a valid digest of their payload and the right seed.
func retiredEntries(seed int64, payload string) (jsonEnvelope, binaryEnvelope []byte) {
	sum := sha256.Sum256([]byte(payload))
	jsonEnvelope = fmt.Appendf(nil, `{"seed":%d,"sha256":%q,"data":%s}`, seed, hex.EncodeToString(sum[:]), payload)
	binaryEnvelope = append([]byte{0x89, 'I', 'O', 'S', 'C', '1', '\r', '\n'}, binary.AppendVarint(nil, seed)...)
	binaryEnvelope = binary.AppendUvarint(binaryEnvelope, uint64(len(payload)))
	binaryEnvelope = append(append(binaryEnvelope, payload...), sum[:]...)
	return jsonEnvelope, binaryEnvelope
}

// TestRetiredEnvelopesAreMisses: an entry written before cells were
// stored as packed records is never unpacked as one — it reads as a miss,
// and the next Put repairs it in place.
func TestRetiredEnvelopesAreMisses(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	path := s.cellPath(k, 0, 0)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	jsonEnv, binEnv := retiredEntries(7, `{"offline":true,"online":false}`)
	for name, raw := range map[string][]byte{"json-envelope": jsonEnv, "binary-envelope": binEnv} {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(k, 0, 0, 7); ok {
			t.Fatalf("%s entry served as record % x", name, got)
		}
		if err := s.Put(k, 0, 0, 7, []byte{0x01}); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(k, 0, 0, 7); !ok || !bytes.Equal(got, []byte{0x01}) {
			t.Fatalf("%s entry not repaired by Put: % x, %v", name, got, ok)
		}
	}
}

// TestCorruptBinaryEnvelopeIsMiss pins the miss-never-error contract.
func TestCorruptBinaryEnvelopeIsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	if err := s.Put(k, 1, 2, 5, []byte("a record with enough bytes to truncate")); err != nil {
		t.Fatal(err)
	}
	path := s.cellPath(k, 1, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"magic-only": func(b []byte) []byte { return b[:len(envelopeMagic)] },
		"payload-flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x01
			return c
		},
		"seed-flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(envelopeMagic)] ^= 0x02
			return c
		},
		"digest-flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x01
			return c
		},
		"trailing": func(b []byte) []byte { return append(append([]byte(nil), b...), 0xff) },
	} {
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(k, 1, 2, 5); ok {
			t.Fatalf("%s envelope served", name)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(k, 1, 2, 5); !ok {
		t.Fatal("pristine entry no longer served")
	}
}

// TestSetEncodingRejectsUnknown: the deprecated shim still validates
// its argument and otherwise changes nothing about what Put writes.
func TestSetEncodingRejectsUnknown(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetEncoding("v3"); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	var entries [][]byte
	for i, enc := range []string{"", EncodingJSON, EncodingBinary} {
		if err := s.SetEncoding(enc); err != nil {
			t.Fatalf("SetEncoding(%q): %v", enc, err)
		}
		if err := s.Put(k, i, 0, 1, []byte("rec")); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(s.cellPath(k, i, 0))
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, raw)
	}
	if !bytes.Equal(entries[0], entries[1]) || !bytes.Equal(entries[1], entries[2]) {
		t.Fatal("SetEncoding changed what Put writes")
	}
}

// FuzzDecodeEnvelope hammers the cell-envelope decoder: it never panics,
// and anything it accepts re-encodes to exactly the bytes it came from,
// so a decoded record is the one a Put wrote.
func FuzzDecodeEnvelope(f *testing.F) {
	// testdata/fuzz/FuzzDecodeEnvelope holds the checked-in seeds: a valid
	// entry, a truncation, a flipped magic and both retired forms.
	f.Add(encodeEnvelope(-42, []byte{0x1f, 0x07}))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, raw []byte) {
		seed, record, ok := decodeEnvelope(raw)
		if !ok {
			return
		}
		if again := encodeEnvelope(seed, record); !bytes.Equal(again, raw) {
			t.Fatalf("accepted envelope re-encodes differently:\n got % x\nwant % x", again, raw)
		}
	})
}
