package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// codecTestFile builds a two-run, two-shard-decomposition file with
// JSON-only payloads (no codec is registered for the fake experiment
// names, so the binary encoder exercises the JSON fallback column).
func codecTestFile() *File {
	mk := func(p, s int, seed int64, data string) Cell {
		return Cell{Point: p, System: s, Seed: seed, Data: json.RawMessage(data)}
	}
	return &File{
		Version:   FormatVersion,
		Selection: "all",
		Shards:    2,
		Index:     0,
		Params:    json.RawMessage(`{"seed":7,"systems":4}`),
		Runs: []Run{
			{
				Experiment: "codectest-a", Grid: Grid{Points: 2, Systems: 2}, PayloadVersion: 1,
				Cells: []Cell{
					mk(0, 0, -9027405967633948161, `{"ok":true,"x":0.30000000000000004}`),
					mk(1, 0, 4611686018427387904, `{"ok":false,"x":-1e-09}`),
				},
			},
			{
				Experiment: "codectest-b", Grid: Grid{Points: 1, Systems: 4}, PayloadVersion: 3,
				Cells: []Cell{
					mk(0, 0, 0, `null`),
					mk(0, 2, 12, `[1,2,3]`),
				},
			},
		},
	}
}

// stripAnnotations clears the non-serialized fields so decoded files
// compare against in-memory originals.
func stripAnnotations(f *File) *File {
	g := *f
	g.Path, g.Encoding = "", ""
	return &g
}

func TestBinaryRoundTrip(t *testing.T) {
	f := codecTestFile()
	bin, err := f.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinary(bin) {
		t.Fatalf("EncodeBinary output does not open with the magic: % x", bin[:8])
	}
	got, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoding != EncodingBinary {
		t.Fatalf("decoded Encoding = %q, want %q", got.Encoding, EncodingBinary)
	}
	if !reflect.DeepEqual(stripAnnotations(got), f) {
		t.Fatalf("binary round trip differs:\ngot  %+v\nwant %+v", got, f)
	}
	// The re-rendered v1 form must be byte-identical to encoding the
	// original directly: the binary layout is an encoding, not a lossy
	// projection.
	wantJSON, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("v2→v1 re-encode differs:\ngot:\n%s\nwant:\n%s", gotJSON, wantJSON)
	}
	// Deterministic: encoding again is byte-identical.
	bin2, err := got.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, bin2) {
		t.Fatal("EncodeBinary is not deterministic")
	}
}

func TestDecodeAutoDetectsEncoding(t *testing.T) {
	f := codecTestFile()
	jsonBytes, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(jsonBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoding != EncodingJSON {
		t.Fatalf("JSON decode Encoding = %q, want %q", got.Encoding, EncodingJSON)
	}
	// The v1 decoder keeps each payload's in-file spelling (indented), so
	// the equality that matters is the re-rendered file, not raw bytes.
	again, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, jsonBytes) {
		t.Fatal("JSON round trip render differs")
	}
}

func TestMixedEncodingMerge(t *testing.T) {
	// One run split in two shards; shard 0 travels as v1 JSON, shard 1 as
	// v2 binary. The merge must not notice.
	grid := Grid{Points: 2, Systems: 2}
	shardFile := func(index int) *File {
		f := &File{
			Version: FormatVersion, Selection: "codectest-a", Shards: 2, Index: index,
			Params: json.RawMessage(`{"seed":1}`),
			Runs:   []Run{{Experiment: "codectest-a", Grid: grid, PayloadVersion: 1}},
		}
		for g := 0; g < grid.Cells(); g++ {
			if g%2 != index {
				continue
			}
			f.Runs[0].Cells = append(f.Runs[0].Cells, Cell{
				Point: g / grid.Systems, System: g % grid.Systems,
				Seed: int64(1000 + g), Data: json.RawMessage(fmt.Sprintf(`{"g":%d}`, g)),
			})
		}
		return f
	}
	dir := t.TempDir()
	p0 := filepath.Join(dir, "shard0.json")
	p1 := filepath.Join(dir, "shard1.bin")
	if err := shardFile(0).WriteFileAs(p0, EncodingJSON); err != nil {
		t.Fatal(err)
	}
	if err := shardFile(1).WriteFileAs(p1, EncodingBinary); err != nil {
		t.Fatal(err)
	}
	f0, err := ReadFile(p0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if f0.Encoding != EncodingJSON || f1.Encoding != EncodingBinary {
		t.Fatalf("encodings %q/%q, want json/binary", f0.Encoding, f1.Encoding)
	}
	mixed, err := Merge([]*File{f0, f1})
	if err != nil {
		t.Fatal(err)
	}
	pure, err := Merge([]*File{shardFile(0), shardFile(1)})
	if err != nil {
		t.Fatal(err)
	}
	mixedJSON, err := mixed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pureJSON, err := pure.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mixedJSON, pureJSON) {
		t.Fatal("mixed v1/v2 merge is not byte-identical to the pure v1 merge")
	}
}

func TestBinaryPreservesHeaders(t *testing.T) {
	// Partial and batch headers, host fingerprints and nil params survive
	// the round trip.
	partial := &File{
		Version: FormatVersion, Selection: "all", Shards: 1, Index: 0,
		Partial: &PartialInfo{Shards: 3, Present: []int{0, 2}},
	}
	batch := &File{
		Version: FormatVersion, Selection: "codectest-a", Shards: 1, Index: 0,
		Batch: &BatchInfo{Cells: [][]int{{0, 1}}},
		Runs: []Run{{Experiment: "codectest-a", Grid: Grid{Points: 1, Systems: 2}, Cells: []Cell{
			{Point: 0, System: 0, Data: json.RawMessage(`1`)},
			{Point: 0, System: 1, Data: json.RawMessage(`2`)},
		}}},
	}
	hosted := &File{
		Version: FormatVersion, Selection: "codectest-a", Shards: 1, Index: 0,
		Host: "linux/amd64 cpus=8 go1.24.0",
		Runs: []Run{{Experiment: "codectest-a", Grid: Grid{Points: 1, Systems: 1}, Cells: []Cell{
			{Point: 0, System: 0, Data: json.RawMessage(`1`)},
		}}},
	}
	for _, f := range []*File{partial, batch, hosted} {
		bin, err := f.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripAnnotations(got), f) {
			t.Fatalf("header round trip differs:\ngot  %+v\nwant %+v", got, f)
		}
	}
}

func TestDecodeBinaryRejectsCorruption(t *testing.T) {
	f := codecTestFile()
	bin, err := f.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Any truncation must fail with an error — no panic, no silent
	// success on a prefix.
	for i := len(binaryMagic); i < len(bin); i++ {
		if _, err := Decode(bin[:i]); err == nil {
			t.Fatalf("Decode accepted a %d-byte truncation of a %d-byte file", i, len(bin))
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := Decode(append(append([]byte(nil), bin...), 0xff)); err == nil {
		t.Fatal("Decode accepted trailing bytes")
	}
	// A flipped magic byte demotes the file to the JSON path, which must
	// reject it cleanly.
	flipped := append([]byte(nil), bin...)
	flipped[0] ^= 0xff
	if _, err := Decode(flipped); err == nil {
		t.Fatal("Decode accepted a flipped-magic file")
	}
}

func TestDecodeBinaryRejectsHugeCellCount(t *testing.T) {
	// A tiny file whose header declares an enormous (but grid-legal) cell
	// count must be rejected by the remaining-bytes bound, not allocated.
	hdr := fmt.Sprintf(`{"version":1,"selection":"x","shards":1,"shard_index":0,`+
		`"runs":[{"experiment":"x","grid":{"points":4096,"systems":4096},"cells":%d,"column":"json"}]}`,
		4096*4096)
	w := &ColumnWriter{}
	w.Blob([]byte(hdr))
	w.Blob(nil) // params
	data := append(append([]byte(nil), binaryMagic[:]...), w.Bytes()...)
	_, err := Decode(data)
	if err == nil || !strings.Contains(err.Error(), "bytes remain") {
		t.Fatalf("Decode error = %v, want a remaining-bytes bound failure", err)
	}
}

func TestParseEncoding(t *testing.T) {
	for in, want := range map[string]string{"": EncodingJSON, "json": EncodingJSON, "binary": EncodingBinary} {
		got, err := ParseEncoding(in)
		if err != nil || got != want {
			t.Fatalf("ParseEncoding(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseEncoding("v3"); err == nil {
		t.Fatal("ParseEncoding accepted an unknown codec name")
	}
}

func TestSniffFileEncoding(t *testing.T) {
	dir := t.TempDir()
	f := codecTestFile()
	for _, enc := range []string{EncodingJSON, EncodingBinary} {
		path := filepath.Join(dir, enc)
		if err := f.WriteFileAs(path, enc); err != nil {
			t.Fatal(err)
		}
		got, err := SniffFileEncoding(path)
		if err != nil || got != enc {
			t.Fatalf("SniffFileEncoding(%s) = %q, %v; want %q", path, got, err, enc)
		}
	}
	// An empty file sniffs as JSON (and would fail Decode later).
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := SniffFileEncoding(empty); err != nil || got != EncodingJSON {
		t.Fatalf("SniffFileEncoding(empty) = %q, %v", got, err)
	}
}
