package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/shard"
)

// fillRandom populates v (a pointer into a payload value) with
// deterministic pseudo-random content: every bool/int/float/string leaf
// is randomised, pointers and slices are sometimes nil, so the codecs
// see the full shape space — nil reports, empty event lists, negative
// cycles, floats that need all 17 significant digits.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Mix magnitudes: small counts, cycle-scale values, negatives.
		switch rng.Intn(3) {
		case 0:
			v.SetInt(int64(rng.Intn(16)))
		case 1:
			v.SetInt(rng.Int63n(1 << 40))
		default:
			v.SetInt(-rng.Int63n(1 << 40))
		}
	case reflect.Float64:
		switch rng.Intn(3) {
		case 0:
			v.SetFloat(rng.Float64())
		case 1:
			v.SetFloat(float64(rng.Intn(100)) / 7) // repeating decimals
		default:
			v.SetFloat(-rng.Float64() * 1e-9)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("ev-%d", rng.Intn(1000)))
	case reflect.Ptr:
		if rng.Intn(3) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fillRandom(rng, v.Elem())
	case reflect.Slice:
		if rng.Intn(4) == 0 {
			v.Set(reflect.Zero(v.Type())) // nil, distinct from empty
			return
		}
		n := rng.Intn(4)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillRandom(rng, s.Index(i))
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillRandom(rng, v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("fillRandom: unhandled kind %v", v.Kind()))
	}
}

// randomPayloads generates n random typed payloads for e (each the
// pointer Codec().New returns, the value a cell carries).
func randomPayloads(rng *rand.Rand, e Experiment, n int) []any {
	out := make([]any, n)
	for i := range out {
		v := e.Codec().New()
		fillRandom(rng, reflect.ValueOf(v).Elem())
		out[i] = v
	}
	return out
}

// TestPayloadCodecRoundTrip is the direct property test: for every
// registered experiment with a typed payload codec, random payloads
// packed into a column and unpacked again must deep-equal the originals
// and render the same JSON byte for byte.
func TestPayloadCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tested := 0
	for _, e := range All() {
		c := e.Codec()
		if c.Payload == nil {
			if c.New != nil {
				t.Errorf("%s: grid experiment without a payload codec", e.Name())
			}
			continue
		}
		tested++
		for round := 0; round < 50; round++ {
			payloads := randomPayloads(rng, e, 1+rng.Intn(8))
			w := &shard.ColumnWriter{}
			for _, p := range payloads {
				if err := c.Payload.Pack(w, p); err != nil {
					t.Fatalf("%s: Pack: %v", e.Name(), err)
				}
			}
			got := make([]shard.Cell, len(payloads))
			r := shard.NewColumnReader(w.Bytes())
			if err := c.Payload.Unpack(r, got); err != nil || r.Remaining() != 0 {
				t.Fatalf("%s: Unpack: %v (%d bytes left)", e.Name(), err, r.Remaining())
			}
			for i, want := range payloads {
				if !reflect.DeepEqual(got[i].Data, want) {
					t.Fatalf("%s: payload %d round trip:\ngot  %+v\nwant %+v", e.Name(), i, got[i].Data, want)
				}
				gotJSON, _ := json.Marshal(got[i].Data)
				wantJSON, _ := json.Marshal(want)
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("%s: payload %d renders %s, want %s", e.Name(), i, gotJSON, wantJSON)
				}
			}
		}
	}
	if tested == 0 {
		t.Fatal("no payload codecs registered")
	}
}

// TestBinaryContainerRoundTripAllExperiments drives the same property
// through the whole container: a shard file holding one run of random
// cells per registry experiment must decode from its binary form to
// payloads that deep-equal the originals, and its v1 JSON render must
// be byte-identical whether it travelled as v1 or v2.
func TestBinaryContainerRoundTripAllExperiments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := &shard.File{
		Version:   shard.FormatVersion,
		Selection: "all",
		Shards:    1,
		Index:     0,
		Params:    json.RawMessage(`{"seed":1,"systems":6,"util":"0.35"}`),
	}
	for _, e := range All() {
		if e.Codec().New == nil {
			continue
		}
		payloads := randomPayloads(rng, e, 6)
		run := shard.Run{
			Experiment:     e.Name(),
			Grid:           shard.Grid{Points: len(payloads), Systems: 1},
			PayloadVersion: e.Codec().Version,
		}
		for i, p := range payloads {
			run.Cells = append(run.Cells, shard.Cell{Point: i, Seed: rng.Int63() - rng.Int63(), Data: p})
		}
		f.Runs = append(f.Runs, run)
	}

	bin, err := f.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	v1, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(v1) {
		t.Errorf("binary encoding (%d bytes) is not smaller than JSON (%d bytes)", len(bin), len(v1))
	}
	got, err := shard.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}

	// Payloads deep-equal the originals, typed as each experiment's codec
	// types them.
	for ri, run := range got.Runs {
		for ci, cell := range run.Cells {
			if want := f.Runs[ri].Cells[ci].Data; !reflect.DeepEqual(cell.Data, want) {
				t.Fatalf("%s cell %d: decoded payload differs:\ngot  %+v\nwant %+v", run.Experiment, ci, cell.Data, want)
			}
		}
	}

	// v1 → v2 → v1: the rendered JSON is byte-identical.
	rendered, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rendered, v1) {
		t.Fatal("v1 render differs after a binary round trip")
	}
	// And the binary form is a fixed point of its own decode/encode.
	bin2, err := got.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin2, bin) {
		t.Fatal("binary encoding is not deterministic across a round trip")
	}
}
