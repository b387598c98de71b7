package shard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// containerBound is the allocation bound of both container decoders for
// an input of n bytes: every cell, payload and string they build is
// backed by bytes of the input.
func containerBound(n int) uint64 { return 64*uint64(n) + 64<<10 }

// FuzzDecodeBinary hammers the v2 binary container decoder with
// arbitrary bytes. The contract under fuzzing: decoding never panics,
// stays within containerBound (the declared-count bounds), and anything
// it accepts is a well-formed File that round-trips — encode it back to
// binary and decode again, and both the re-encoded bytes and the
// rendered v1 JSON are stable.
func FuzzDecodeBinary(f *testing.F) {
	// Seed with a real encoded file plus targeted mutants: truncations,
	// a flipped magic byte, a corrupt header, and a huge declared count;
	// then typed and legacy payload columns.
	valid, err := codecTestFile().EncodeBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(binaryMagic)])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	flipped := append([]byte(nil), valid...)
	flipped[0] ^= 0xff
	f.Add(flipped)
	corrupt := append([]byte(nil), valid...)
	corrupt[len(binaryMagic)+1] ^= 0xff
	f.Add(corrupt)
	huge := &ColumnWriter{}
	huge.Blob([]byte(`{"version":1,"selection":"x","shards":1,"shard_index":0,` +
		`"runs":[{"experiment":"x","grid":{"points":4096,"systems":4096},"cells":16777216,"column":"json"}]}`))
	huge.Blob(nil)
	f.Add(append(append([]byte(nil), binaryMagic[:]...), huge.Bytes()...))
	f.Add([]byte(nil))
	f.Add(binaryMagic[:])
	// A native column packed by a typed codec, and the JSON column older
	// builds wrote for the same typed run.
	typed, err := typedTestFile().EncodeBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(typed)
	g := typedTestFile()
	g.Runs[0].Experiment = "codectest-jsonx"
	legacy, err := g.EncodeBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Replace(legacy, []byte("codectest-jsonx"), []byte("codectest-typed"), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		if !IsBinary(data) {
			return // the JSON path has its own decoder; fuzz the binary one
		}
		var decoded *File
		var err error
		if alloc := allocated(func() { decoded, err = Decode(data) }); alloc > containerBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		// Accepted input: the decoded file must re-encode and decode to a
		// fixed point, and its v1 render must be reproducible.
		bin, err := decoded.EncodeBinary()
		if err != nil {
			t.Fatalf("decoded file does not re-encode: %v", err)
		}
		again, err := Decode(bin)
		if err != nil {
			t.Fatalf("re-encoded file does not decode: %v", err)
		}
		bin2, err := again.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bin, bin2) {
			t.Fatal("re-encoding an accepted file is not a fixed point")
		}
		js1, err := decoded.Encode()
		if err != nil {
			t.Fatalf("decoded file does not render as v1 JSON: %v", err)
		}
		js2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js1, js2) {
			t.Fatal("v1 render changed across a binary round trip")
		}
	})
}

// FuzzDecodeJSON hammers the v1 JSON decoder, the scanner every JSON
// shard file goes through, against the reference decoder it replaced
// (jsonref_test.go). The contract under fuzzing: decoding never panics
// and stays within containerBound; the two decoders accept exactly the
// same inputs, and what they accept renders to the same v1 bytes, which
// are json.MarshalIndent's and a newline; and an accepted file
// re-encodes to a fixed point — encode it as v1, decode and encode
// again, and the bytes are stable.
// The checked-in corpus seeds valid, truncated, unknown-field and
// wrong-typed files and the quirks of encoding/json's input language:
// folded, escaped and repeated keys, null and missing payloads, numbers
// an int or a float64 cannot hold, and a whole file laid out anew.
func FuzzDecodeJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		js, err := genFile(rng).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if IsBinary(data) {
			return // FuzzDecodeBinary covers the v2 container
		}
		var decoded *File
		var err error
		if alloc := allocated(func() { decoded, err = Decode(data) }); alloc > containerBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		ref, refErr := refDecode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoders disagree: error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		js, err := decoded.Encode()
		if err != nil {
			t.Fatalf("decoded file does not re-encode: %v", err)
		}
		if want, err := json.MarshalIndent(decoded, "", "  "); err != nil || !bytes.Equal(js, append(want, '\n')) {
			t.Fatalf("Encode differs from MarshalIndent (error %v):\n%s\nwant\n%s", err, js, want)
		}
		if refJS, err := ref.Encode(); err != nil || !bytes.Equal(js, refJS) {
			t.Fatalf("decoders disagree on the file (reference encode error %v):\n%s\nreference\n%s", err, js, refJS)
		}
		again, err := Decode(js)
		if err != nil {
			t.Fatalf("re-encoded file does not decode: %v", err)
		}
		js2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, js2) {
			t.Fatal("re-encoding an accepted file is not a fixed point")
		}
	})
}
