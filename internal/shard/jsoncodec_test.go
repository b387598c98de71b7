package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/timing"
	"repro/internal/trace"
)

// richPayload has the shapes of the experiments' payloads that the v1
// field table decodes: bools, int kinds, a named int64, floats, strings
// (in the pointed-to report's event labels), nested structs, pointers
// and slices, plus fields encoding/json ignores.
type richPayload struct {
	OK     bool          `json:"ok"`
	Small  int8          `json:"small,omitempty"`
	Base   timing.Cycle  `json:"base_latency,omitempty"`
	Mean   float64       `json:"mean"`
	Report *trace.Report `json:"report"`
	Hist   []int64       `json:"hist"`
	Skip   int           `json:"-"`
	hidden int
}

// omitPayload holds an omitempty field of every kind the field table
// renders, and one under its Go name; genFile sets each to its zero value
// or to a non-zero one.
type omitPayload struct {
	B bool          `json:"b,omitempty"`
	I int16         `json:"i,omitempty"`
	F float64       `json:"f,omitempty"`
	S string        `json:"s,omitempty"`
	P *typedPayload `json:"p,omitempty"`
	L []int         `json:"l,omitempty"`
	T typedPayload  `json:"t,omitempty"` // a struct is never empty
	N *[]string     `json:",omitempty"`
}

// jsonBlobCodec registers T with pack and unpack as a JSON blob: the
// tests below exercise the v1 decoder, not the v2 packers.
func jsonBlobCodec[T any]() PayloadCodec {
	return NewCodec(
		func(w *ColumnWriter, v *T) {
			b, _ := json.Marshal(v)
			w.Blob(b)
		},
		func(r *ColumnReader, v *T) error {
			b, err := r.Blob()
			if err != nil {
				return err
			}
			return json.Unmarshal(b, v)
		})
}

func init() {
	RegisterPayloadCodec("codectest-rich", 1, jsonBlobCodec[richPayload]())
	RegisterPayloadCodec("codectest-slice", 1, jsonBlobCodec[[]typedPayload]())
	RegisterPayloadCodec("codectest-omit", 1, jsonBlobCodec[omitPayload]())
}

// genFile builds a random file over every payload codec the package's
// tests register and the generic one, drawing the values the v1 render
// is most likely to get wrong: floats around the 'e' switch of
// encoding/json, negative zero, HTML and line-separator characters,
// invalid UTF-8, nil against empty slices, omitempty fields at zero and
// not, and payloads of another type than their run codec's, which
// render through json.Marshal.
func genFile(rng *rand.Rand) *File {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 9.999999e-7, 1e-6, 1e20, 1e21, 1e21 * 1.5,
		0.30000000000000004, -1e-9, 5e-324, math.MaxFloat64, 123456789.125}
	texts := []string{"", "plain", "<a&b>", "line\u2028sep\u2029", "bad\xffutf8", "quote\"back\\slash", "tab\tnl\n", "é"}
	pick := func(n int) int { return rng.Intn(n) }
	fl := func() float64 { return floats[pick(len(floats))] }
	text := func() string { return texts[pick(len(texts))] }
	var ints []int64
	if pick(3) > 0 {
		ints = make([]int64, pick(4))
		for i := range ints {
			ints[i] = rng.Int63n(1<<40) - 1<<39
		}
	}
	rich := func() *richPayload {
		p := &richPayload{OK: pick(2) == 0, Small: int8(pick(256) - 128), Base: timing.Cycle(pick(3) * 1000), Mean: fl(), Hist: ints}
		if pick(3) > 0 {
			p.Report = &trace.Report{Exact: pick(5), MaxDeviation: timing.Cycle(pick(9)), MeanDeviation: fl()}
			if pick(3) > 0 {
				p.Report.Events = []trace.Event{}
				for i := pick(3); i > 0; i-- {
					p.Report.Events = append(p.Report.Events, trace.Event{Label: text(), Expected: timing.Cycle(pick(99)), Observed: -1})
				}
			}
		}
		return p
	}
	typed := func() *typedPayload { return &typedPayload{OK: pick(2) == 0, X: fl()} }
	omit := func() *omitPayload {
		p := &omitPayload{}
		if pick(2) == 0 {
			strs := []string{}
			for i := pick(3); i > 0; i-- {
				strs = append(strs, text())
			}
			p.B, p.I, p.F, p.S, p.P, p.T, p.N = true, int16(pick(9)-4), fl(), text(), typed(), *typed(), &strs
		}
		p.L = [...][]int{nil, {}, {pick(9) - 4}}[pick(3)]
		return p
	}
	raw := func() json.RawMessage {
		b, _ := json.Marshal(map[string]any{"label": text(), "x": fl()})
		return [...]json.RawMessage{nil, json.RawMessage("null"), json.RawMessage(" [ 1 , 2 ] "), b,
			json.RawMessage(" {\"html\" : \"<a&b>\u2028\u2029\", \"n\":[ {} , [ ] , -0.5e3 ,true,\"\\\"<\"]\n} ")}[pick(5)]
	}
	f := &File{Version: FormatVersion, Selection: text(), Shards: 1, Index: 0,
		Params: json.RawMessage(`{"label":` + string(must(json.Marshal(text()))) + `, "seed": 3, "raw": "<&>\u2028"}`)}
	if pick(2) == 0 {
		f.Host = text()
	}
	switch pick(4) {
	case 0:
		f.Partial = &PartialInfo{Shards: 3, Present: []int{0, 2}}
	case 1:
		f.Batch = &BatchInfo{Cells: [][]int{}}
	case 2:
		f.Runs = []Run{}
	}
	for _, exp := range []string{"codectest-typed", "codectest-rich", "codectest-slice", "codectest-omit", "codectest-generic"} {
		if pick(4) == 0 {
			continue
		}
		r := Run{Experiment: exp, Grid: Grid{Points: 2, Systems: 3}, PayloadVersion: 1}
		if pick(4) > 0 {
			r.Cells = []Cell{}
		}
		for i := pick(4); i > 0; i-- {
			c := Cell{Point: pick(2), System: pick(3), Seed: rng.Int63() - rng.Int63()}
			switch exp {
			case "codectest-typed":
				c.Data = typed()
			case "codectest-rich":
				c.Data = rich()
			case "codectest-slice":
				var s []typedPayload
				if pick(3) > 0 {
					s = []typedPayload{}
				}
				for j := pick(3); j > 0; j-- {
					s = append(s, *typed())
				}
				c.Data = &s
			case "codectest-omit":
				c.Data = omit()
			default:
				c.Data = raw()
			}
			if pick(6) == 0 { // a payload of another type that decodes as the run's
				switch v := c.Data.(type) {
				case json.RawMessage:
					c.Data = typed()
				default:
					val := reflect.ValueOf(v).Elem().Interface()
					c.Data = [...]any{nil, val, json.RawMessage(" " + string(must(json.Marshal(val))) + "\n")}[pick(3)]
				}
			}
			r.Cells = append(r.Cells, c)
		}
		f.Runs = append(f.Runs, r)
		if f.Batch != nil {
			f.Batch.Cells = append(f.Batch.Cells, [][]int{{0, 5}, {}, nil}[pick(3)])
		}
	}
	return f
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// TestEncodeMatchesMarshalIndent: Encode writes exactly
// json.MarshalIndent(f, "", "  ") and a newline, over generated files.
func TestEncodeMatchesMarshalIndent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		f := genFile(rng)
		got, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("file %d: Encode differs from MarshalIndent:\n%s\nwant\n%s", i, got, want)
		}
		// What Encode writes, both decoders read back to the same render
		// (not always got itself: invalid UTF-8 reads back as U+FFFD).
		again, err := Decode(got)
		if err != nil {
			t.Fatalf("file %d: %v\n%s", i, err, got)
		}
		ref, err := refDecode(got)
		if err != nil {
			t.Fatalf("file %d: reference: %v", i, err)
		}
		if a, r := mustEncode(t, again, EncodingJSON), mustEncode(t, ref, EncodingJSON); !bytes.Equal(a, r) {
			t.Fatalf("file %d: decoded file renders differently:\n%s\nreference\n%s", i, a, r)
		}
	}
}

// Payload field types that render through their own methods, which a
// field table would not reproduce.
type (
	valueMarshaler int
	ptrMarshaler   struct{ N int }
	valueText      string
	ptrText        bool
)

func (valueMarshaler) MarshalJSON() ([]byte, error)  { return []byte(`"m"`), nil }
func (*ptrMarshaler) MarshalJSON() ([]byte, error)   { return []byte(`"m"`), nil }
func (valueText) MarshalText() ([]byte, error)       { return []byte("t"), nil }
func (*ptrText) MarshalText() (text []byte, e error) { return []byte("t"), nil }

// TestNewCodecRejectsUnsupportedTypes: a payload type the v1 field table
// cannot decode or render exactly as encoding/json would panics at
// registration.
func TestNewCodecRejectsUnsupportedTypes(t *testing.T) {
	type recursive struct {
		Next *recursive `json:"next"`
	}
	type embedded struct{ typedPayload }
	type stringOpt struct {
		N int `json:"n,string"`
	}
	type folded struct {
		A int `json:"ok"`
		B int `json:"OK"`
	}
	type oddName struct {
		A int `json:"a-b"`
	}
	type omitZero struct {
		N int `json:"n,omitzero"`
	}
	type otherOpt struct {
		N int `json:"n,omitempty,inline"`
	}
	for name, build := range map[string]func(){
		"map":         func() { jsonBlobCodec[map[string]int]() },
		"interface":   func() { jsonBlobCodec[any]() },
		"uint":        func() { jsonBlobCodec[struct{ N uint }]() },
		"float32":     func() { jsonBlobCodec[struct{ F float32 }]() },
		"array":       func() { jsonBlobCodec[[2]int]() },
		"unmarshaler": func() { jsonBlobCodec[json.RawMessage]() },
		"recursive":   func() { jsonBlobCodec[recursive]() },
		"embedded":    func() { jsonBlobCodec[embedded]() },
		"string-opt":  func() { jsonBlobCodec[stringOpt]() },
		"fold-equal":  func() { jsonBlobCodec[folded]() },
		"odd-name":    func() { jsonBlobCodec[oddName]() },
		"marshaler":   func() { jsonBlobCodec[struct{ M valueMarshaler }]() },
		"marshal-ptr": func() { jsonBlobCodec[struct{ M []ptrMarshaler }]() },
		"text":        func() { jsonBlobCodec[struct{ T *valueText }]() },
		"text-ptr":    func() { jsonBlobCodec[ptrText]() },
		"number":      func() { jsonBlobCodec[struct{ N json.Number }]() },
		"omitzero":    func() { jsonBlobCodec[omitZero]() },
		"other-opt":   func() { jsonBlobCodec[otherOpt]() },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(r.(string), "shard: payload") {
					t.Errorf("%s: NewCodec did not panic with a payload-type message: %v", name, r)
				}
			}()
			build()
		}()
	}
}

// TestEncodeNamesTheCell: a payload that cannot render as JSON — NaN or
// an infinity, through the field table or through json.Marshal — fails
// Encode naming its run and cell; invalid params fail it too.
func TestEncodeNamesTheCell(t *testing.T) {
	for name, tc := range map[string]struct {
		data any
		want string
	}{
		"nan":         {&typedPayload{X: math.NaN()}, "json: unsupported value: NaN"},
		"inf":         {&typedPayload{X: math.Inf(1)}, "json: unsupported value: +Inf"},
		"value-inf":   {typedPayload{X: math.Inf(-1)}, "json: unsupported value: -Inf"},
		"invalid-raw": {json.RawMessage(`{"x":`), "json: error calling MarshalJSON for type json.RawMessage: unexpected end of JSON input"},
	} {
		f := typedTestFile()
		f.Runs[0].Cells[1].Data = tc.data
		_, err := f.Encode()
		if err == nil || !strings.Contains(err.Error(), `run "codectest-typed" cell (0,1): `+tc.want) {
			t.Errorf("%s: Encode: %v", name, err)
		}
		if _, werr := json.Marshal(f); werr == nil {
			t.Errorf("%s: json.Marshal accepts the file", name)
		}
	}
	f := typedTestFile()
	f.Params = json.RawMessage(`{"seed":3}}`)
	if _, err := f.Encode(); err == nil || !strings.HasPrefix(err.Error(), "shard: encode: ") {
		t.Errorf("invalid params: Encode: %v", err)
	}
}

// refDecode is Decode through the reference v1 decoder.
func refDecode(data []byte) (*File, error) {
	f, err := refDecodeJSON(data)
	if err != nil {
		return nil, err
	}
	return f, f.validateDecoded()
}

// TestDecodeJSONQuirks pins, against the reference decoder, inputs whose
// meaning comes from encoding/json's rules rather than the schema: a
// repeated key decodes into what the earlier one left, including the
// elements a shorter array left past a slice's length.
func TestDecodeJSONQuirks(t *testing.T) {
	head := `{"version":1,"selection":"x","shards":1,"shard_index":0,"runs":[{"experiment":"codectest-rich","payload_version":1,"grid":{"points":1,"systems":1},"cells":[{"point":0,"system":0,"seed":1,"data":`
	for name, data := range map[string]string{
		"merge-struct":  `{"ok":true,"report":{"Exact":2}},"data":{"mean":1.5,"report":{"MeanDeviation":0.5}}`,
		"stale-slice":   `{"hist":[1,2,3]},"data":{"hist":[9]},"data":{"hist":[null,null,null]}`,
		"stale-events":  `{"report":{"Events":[{"Label":"a","Expected":1},{"Label":"b"}]}},"data":{"report":{"Events":[{"Observed":4}]}},"data":{"report":{"Events":[{},{}]}}`,
		"null-pointer":  `{"report":{"Exact":1}},"data":{"report":null}`,
		"null-primary":  `{"ok":true,"mean":2,"hist":[1]},"data":{"ok":null,"mean":null,"hist":null}`,
		"empty-slice":   `{"hist":[1,2]},"data":{"hist":[]}`,
		"folded-keys":   `{"OK":true,"Base_Latency":3,"REPORT":{"events":[{"label":"é","EXPECTED":1}]}}`,
		"escaped-keys":  `{"\u006fk":true,"rep\u006Frt":{"\u0045xact":2}}`,
		"unicode-fold":  "{\"o\u212a\":true,\"report\":{\"Exact\u017f\":1}}",
		"escaped-fold":  `{"o\u212a":true}`,
		"invalid-utf8":  "{\"report\":{\"Events\":[{\"Label\":\"a\xffb\"}]}}",
		"int8-overflow": `{"small":128}`,
		"int-as-float":  `{"base_latency":1.0}`,
		"float-range":   `{"mean":1e400}`,
		"unknown-field": `{"extra":1}`,
		"unexported":    `{"hidden":1}`,
		"ignored-field": `{"Skip":1}`,
		"wrong-kind":    `{"hist":{}}`,
	} {
		in := []byte(head + data + `}]}]}`)
		got, err := Decode(in)
		want, werr := refDecode(in)
		if (err == nil) != (werr == nil) {
			t.Errorf("%s: decode error %v, reference %v", name, err, werr)
			continue
		}
		if err == nil && !bytes.Equal(mustEncode(t, got, EncodingJSON), mustEncode(t, want, EncodingJSON)) {
			t.Errorf("%s: decoded file renders differently from the reference:\n%s\nwant\n%s", name,
				mustEncode(t, got, EncodingJSON), mustEncode(t, want, EncodingJSON))
		}
	}
}

// TestDecodeJSONNamesTheCell: a bad payload in a typed run names its
// cell, wherever the cell's keys sit.
func TestDecodeJSONNamesTheCell(t *testing.T) {
	in := []byte(`{"version":1,"selection":"x","shards":1,"shard_index":0,"runs":[{"experiment":"codectest-typed","payload_version":1,"grid":{"points":2,"systems":2},"cells":[
		{"point":0,"system":1,"seed":1,"data":{"ok":true}},
		{"data":{"ok":1},"point":1,"system":1}]}]}`)
	_, err := Decode(in)
	if err == nil || !strings.Contains(err.Error(), `run "codectest-typed" cell (1,1) payload`) {
		t.Fatalf("Decode: %v", err)
	}
}
