package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// typedPayload is the payload of the fake "codectest-typed" experiment,
// which these tests register with a typed codec.
type typedPayload struct {
	OK bool    `json:"ok"`
	X  float64 `json:"x"`
}

func init() {
	RegisterPayloadCodec("codectest-typed", 1, NewCodec(
		func(w *ColumnWriter, v *typedPayload) {
			w.Bool(v.OK)
			w.Float64(v.X)
		},
		func(r *ColumnReader, v *typedPayload) (err error) {
			if v.OK, err = r.Bool(); err != nil {
				return err
			}
			v.X, err = r.Float64()
			return err
		}))
}

// typedTestFile is a one-run file of the typed experiment.
func typedTestFile() *File {
	return &File{
		Version: FormatVersion, Selection: "codectest-typed", Shards: 1, Index: 0,
		Params: json.RawMessage(`{"seed":3}`),
		Runs: []Run{{Experiment: "codectest-typed", Grid: Grid{Points: 1, Systems: 3}, PayloadVersion: 1, Cells: []Cell{
			{Point: 0, System: 0, Seed: -5, Data: &typedPayload{OK: true, X: 0.30000000000000004}},
			{Point: 0, System: 1, Seed: 6, Data: &typedPayload{X: -1e-9}},
			{Point: 0, System: 2, Seed: 7, Data: &typedPayload{OK: true}},
		}}},
	}
}

// legacyColumnFile renders f as an older build did when a payload did not
// pack: a v2 file whose payload column is the JSON one. It encodes the
// file under an unregistered name of the same length (so the generic
// JSON codec writes the column) and swaps the name back.
func legacyColumnFile(t *testing.T, f *File) []byte {
	t.Helper()
	g := *f
	g.Runs = []Run{f.Runs[0]}
	g.Runs[0].Experiment = "codectest-jsonx"
	bin, err := g.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(bin, []byte(`"column":"json"`)) {
		t.Fatal("the generic codec did not write a JSON column")
	}
	return bytes.Replace(bin, []byte("codectest-jsonx"), []byte("codectest-typed"), 1)
}

func mustEncode(t *testing.T, f *File, encoding string) []byte {
	t.Helper()
	data, err := f.EncodeAs(encoding)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTypedPayloadRoundTrip(t *testing.T) {
	f := typedTestFile()
	v1 := mustEncode(t, f, EncodingJSON)
	v2 := mustEncode(t, f, EncodingBinary)
	if !bytes.Contains(v2, []byte(`"column":"native"`)) {
		t.Fatal("typed run not packed as a native column")
	}
	for _, data := range [][]byte{v1, v2} {
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		// v1 keeps the params' indented spelling; the cells must match.
		if !reflect.DeepEqual(got.Runs, f.Runs) {
			t.Fatalf("%s round trip differs:\ngot  %+v\nwant %+v", got.Encoding, got.Runs[0].Cells, f.Runs[0].Cells)
		}
		if again := mustEncode(t, got, EncodingJSON); !bytes.Equal(again, v1) {
			t.Fatalf("%s → v1 render differs", got.Encoding)
		}
	}
	got, err := Decode(v2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, got, EncodingBinary), v2) {
		t.Fatal("v2 → v2 render differs")
	}
	// A payload of the wrong type is an encode error naming the cell.
	f.Runs[0].Cells[1].Data = json.RawMessage(`{"ok":true,"x":1}`)
	if _, err := f.EncodeBinary(); err == nil || !strings.Contains(err.Error(), "cell (0,1)") {
		t.Fatalf("EncodeBinary of a mistyped payload: %v", err)
	}
}

// TestLegacyJSONColumnDecodes: v2 files whose payload column is JSON, as
// older builds wrote, still decode. A typed run reads into its typed
// values and re-renders byte-identically to its v1 twin; a run without a
// typed codec re-encodes to the very same v2 bytes.
func TestLegacyJSONColumnDecodes(t *testing.T) {
	f := typedTestFile()
	got, err := Decode(legacyColumnFile(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripAnnotations(got), f) {
		t.Fatalf("legacy column decodes to %+v", got.Runs[0].Cells)
	}
	if !bytes.Equal(mustEncode(t, got, EncodingJSON), mustEncode(t, f, EncodingJSON)) {
		t.Fatal("legacy column file does not re-render as its v1 twin")
	}
	if !bytes.Equal(mustEncode(t, got, EncodingBinary), mustEncode(t, f, EncodingBinary)) {
		t.Fatal("legacy column file does not re-encode as the current v2 form")
	}

	untyped := mustEncode(t, codecTestFile(), EncodingBinary)
	again, err := Decode(untyped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, again, EncodingBinary), untyped) {
		t.Fatal("JSON-column file does not re-encode byte-identically")
	}
}

// TestPayloadStrictness: a payload that does not fit its run's type — an
// unknown field or a wrong-typed one — is a decode error naming the
// file and the cell, in v1 files and legacy JSON columns alike.
func TestPayloadStrictness(t *testing.T) {
	dir := t.TempDir()
	v1 := string(mustEncode(t, typedTestFile(), EncodingJSON))
	for name, bad := range map[string]string{
		"unknown-field": strings.Replace(v1, `"x": -1e-9`, `"x": -1e-9, "extra": 1`, 1),
		"wrong-type":    strings.Replace(v1, `"ok": false`, `"ok": "no"`, 1),
	} {
		if bad == v1 {
			t.Fatalf("%s: mutation did not apply", name)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "cell (0,1)") {
			t.Fatalf("%s: ReadFile error = %v, want one naming %s and cell (0,1)", name, err, path)
		}
	}

	f := typedTestFile()
	f.Runs[0].Experiment = "codectest-jsonx"
	f.Runs[0].Cells[2].Data = json.RawMessage(`{"ok":true,"x":0,"extra":[]}`)
	legacy, err := f.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	legacy = bytes.Replace(legacy, []byte("codectest-jsonx"), []byte("codectest-typed"), 1)
	if _, err := Decode(legacy); err == nil || !strings.Contains(err.Error(), "cell (0,2)") {
		t.Fatalf("legacy column with an unknown field: %v", err)
	}
}

// TestJSONRunKeyOrder: a hand-edited v1 run whose layout keys follow its
// cells still decodes into the right payload type.
func TestJSONRunKeyOrder(t *testing.T) {
	f := typedTestFile()
	want := mustEncode(t, f, EncodingJSON)
	reordered := []byte(`{"version":1,"selection":"codectest-typed","shards":1,"shard_index":0,"params":{"seed":3},"runs":[
	  {"cells":[{"point":0,"system":0,"seed":-5,"data":{"ok":true,"x":0.30000000000000004}},
	            {"point":0,"system":1,"seed":6,"data":{"ok":false,"x":-1e-9}},
	            {"point":0,"system":2,"seed":7,"data":{"ok":true,"x":0}}],
	   "payload_version":1,"grid":{"points":1,"systems":3},"experiment":"codectest-typed"}]}`)
	got, err := Decode(reordered)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Runs[0].Cells[0].Data.(*typedPayload); !ok {
		t.Fatalf("payload decoded as %T", got.Runs[0].Cells[0].Data)
	}
	if !bytes.Equal(mustEncode(t, got, EncodingJSON), want) {
		t.Fatal("reordered file re-renders differently")
	}
	// A payload version after cells already decoded under another layout
	// is rejected, never applied to the wrong type.
	late := []byte(`{"version":1,"selection":"codectest-typed","shards":1,"shard_index":0,"runs":[
	  {"experiment":"codectest-typed","grid":{"points":1,"systems":1},
	   "cells":[{"point":0,"system":0,"seed":1,"data":{"ok":true,"x":0}}],"payload_version":1}]}`)
	if _, err := Decode(late); err == nil || !strings.Contains(err.Error(), "payload_version follows the cells") {
		t.Fatalf("late payload_version: %v", err)
	}
	// A run without a cells key decodes with no cells.
	bare := []byte(`{"version":1,"selection":"codectest-typed","shards":1,"shard_index":0,"runs":[
	  {"experiment":"codectest-typed","grid":{"points":1,"systems":1},"payload_version":1}]}`)
	if got, err := Decode(bare); err != nil || got.Runs[0].Cells != nil {
		t.Fatalf("run without cells: %v, %+v", err, got)
	}
}
