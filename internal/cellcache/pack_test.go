package cellcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// retiredEntries are the three per-cell forms older builds wrote for one
// cell: the JSON envelope and the IOSC1 binary envelope (both holding the
// payload's JSON), and the IOSC2 envelope holding its packed record. Each
// is well-formed in its own format, with a valid digest and the seed.
func retiredEntries(seed int64, payload string, record []byte) [][]byte {
	sum := sha256.Sum256([]byte(payload))
	jsonEnvelope := fmt.Appendf(nil, `{"seed":%d,"sha256":%q,"data":%s}`, seed, hex.EncodeToString(sum[:]), payload)
	iosc1 := append([]byte("\x89IOSC1\r\n"), binary.AppendVarint(nil, seed)...)
	iosc1 = binary.AppendUvarint(iosc1, uint64(len(payload)))
	iosc1 = append(append(iosc1, payload...), sum[:]...)
	iosc2 := append(binary.AppendVarint([]byte("\x89IOSC2\r\n"), seed), record...)
	sum2 := sha256.Sum256(iosc2[8:])
	iosc2 = append(iosc2, sum2[:]...)
	return [][]byte{jsonEnvelope, iosc1, iosc2}
}

func TestDecodePackRejects(t *testing.T) {
	valid := encodePack(cells(0, 3))
	if entries, ok := decodePack(valid); !ok || len(entries) != 3 {
		t.Fatalf("valid pack: %d entries, %v", len(entries), ok)
	}
	dup := cells(0, 2)
	dup[1].System = dup[0].System
	unsorted := cells(0, 2)
	unsorted[0], unsorted[1] = unsorted[1], unsorted[0]
	// A record length pointing past the records, re-digested so only the
	// index is wrong: magic, count, index size, point, system and seed
	// precede it.
	long := encodePack(cells(0, 1))
	long[len(packMagic)+1+1+1+1+8]++
	for name, raw := range map[string][]byte{
		"duplicate":      encodePack(dup),
		"unsorted":       encodePack(unsorted),
		"long record":    resum(long),
		"empty":          nil,
		"magic only":     packMagic[:],
		"retired json":   retiredEntries(1, `{}`, nil)[0],
		"retired IOSC1":  retiredEntries(1, `{}`, nil)[1],
		"retired IOSC2":  retiredEntries(1, `{}`, []byte{1})[2],
		"overlong count": resum(append(append(append([]byte(nil), packMagic[:]...), 0x80, 0x00), make([]byte, sumSize)...)),
	} {
		if _, ok := decodePack(raw); ok {
			t.Errorf("%s pack accepted", name)
		}
	}
}

// resum returns raw with its trailing digest recomputed, so a decoder
// test gets past the digest check to the index.
func resum(raw []byte) []byte {
	if len(raw) < len(packMagic)+sumSize {
		return raw
	}
	c := bytes.Clone(raw)
	sum := sha256.Sum256(c[len(packMagic) : len(c)-sumSize])
	copy(c[len(c)-sumSize:], sum[:])
	return c
}

// FuzzDecodePack hammers the pack decoder with each input as given and
// with its digest recomputed (so the fuzzer reaches the index parser):
// it never panics, anything it accepts re-encodes to exactly the bytes
// it came from (so a served record is the one a Put wrote), and it
// allocates no more than a fixed multiple of its input's length — an
// index count cannot make it allocate for entries the bytes do not hold.
func FuzzDecodePack(f *testing.F) {
	// testdata/fuzz/FuzzDecodePack holds the checked-in seeds: a valid
	// pack, a truncation, a flipped magic, the three retired per-cell
	// envelopes (JSON, IOSC1 as retired-binary, IOSC2) and a pack with
	// duplicate entries.
	f.Add(encodePack(cells(0, 2)))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, in := range [][]byte{raw, resum(raw)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			entries, ok := decodePack(in)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(in))+64<<10 {
				t.Fatalf("decoding %d bytes allocated %d", len(in), alloc)
			}
			if !ok {
				continue
			}
			if again := encodePack(canonical(entries)); !bytes.Equal(again, in) {
				t.Fatalf("accepted pack re-encodes differently:\n got % x\nwant % x", again, in)
			}
		}
	})
}

// TestBinaryEnvelopeRoundTrip: a single cell deposited alone is stored
// in the binary pack form (it opens with the pack magic) and is served
// back byte for byte under its seed, and only under its seed.
func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	s := open(t)
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	e := Entry{Point: 3, System: 7, Seed: -99, Record: []byte{0x1f, 0x00, 0xff, '{'}}
	if err := s.Put(k, []Entry{e}); err != nil {
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
		t.Fatalf("entry does not open with the pack magic: % x", raw)
	}
	v := s.Load(k)
	if got, ok := v.Get(e.Point, e.System, e.Seed); !ok || !bytes.Equal(got, e.Record) {
		t.Fatalf("Get = % x, %v; want % x", got, ok, e.Record)
	}
	// Wrong seed is still a miss.
	if _, ok := v.Get(e.Point, e.System, 99); ok {
		t.Fatal("entry served under a different seed")
	}
}

// TestCorruptBinaryEnvelopeIsMiss pins the miss-never-error contract for
// the binary pack form: each named damage to a one-cell pack makes its
// cell a miss, and the pristine bytes serve it again.
func TestCorruptBinaryEnvelopeIsMiss(t *testing.T) {
	s := open(t)
	k := RunKey("fig5", []byte(`{"seed":1}`), 1)
	e := Entry{Point: 1, System: 2, Seed: 5, Record: []byte("a record with enough bytes to truncate")}
	if err := s.Put(k, []Entry{e}); err != nil {
		t.Fatal(err)
	}
	path := packFiles(t, s, k)[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The seed follows the magic, count, index size, point and system,
	// each a one-byte varint here.
	seedAt := len(packMagic) + 4
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"magic-only": func(b []byte) []byte { return b[:len(packMagic)] },
		"payload-flip": func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)-sumSize-len(e.Record)/2] ^= 0x01
			return c
		},
		"seed-flip": func(b []byte) []byte {
			c := bytes.Clone(b)
			c[seedAt] ^= 0x02
			return c
		},
		"digest-flip": func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)-1] ^= 0x01
			return c
		},
		"trailing": func(b []byte) []byte { return append(bytes.Clone(b), 0xff) },
	} {
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Load(k).Get(e.Point, e.System, e.Seed); ok {
			t.Fatalf("%s pack served", name)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := s.Load(k).Get(e.Point, e.System, e.Seed); !ok || !bytes.Equal(got, e.Record) {
		t.Fatalf("pristine pack served % x, %v", got, ok)
	}
}
