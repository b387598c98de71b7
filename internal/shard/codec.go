package shard

// The pluggable cell-file codec. A shard file has one logical content —
// the File struct, whose cells carry each experiment's typed payload
// value — and two on-disk serialisers of it:
//
//   - v1 ("json"): the indented JSON container jsonencode.go encodes. Human-
//     readable, diff-able, and the only format older builds read.
//   - v2 ("binary"): a columnar binary container. Cells are stored
//     column-wise per run — points, systems, seeds, payloads — with the
//     payload column packed record by record by the run's PayloadCodec.
//     An order of magnitude smaller than v1 on the paper-scale grids,
//     which is what matters once sweeps reach millions of cells.
//
// Readers never choose: Decode auto-detects the encoding from the first
// bytes (the v2 magic cannot collide with JSON, which must start with
// '{' whitespace-insensitively), so merges, journals, caches and the
// coordinator accept any mix of v1 and v2 files. Writers choose with
// EncodeAs/WriteFileAs; the plain Encode/WriteFile stay v1 JSON so
// nothing changes behind existing callers.
//
// Decoding is defensive end to end: every declared length is validated
// against the bytes actually present before anything is allocated, so a
// truncated, flipped-magic or absurd-count file fails with a clean error
// instead of a panic or an OOM-scale allocation (FuzzDecodeBinary pins
// this).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"
	"unicode/utf8"
)

// Encoding names for the two container layouts. The strings are the
// -codec flag values and what File.Encoding reports after a Decode.
const (
	EncodingJSON   = "json"
	EncodingBinary = "binary"
)

// binaryMagic opens every v2 file. Modeled on PNG's signature: a
// non-ASCII first byte (never valid leading JSON, and mangled by any
// 7-bit transport), the format name and version, and a CRLF that a
// newline-translating transfer corrupts visibly.
var binaryMagic = [8]byte{0x89, 'I', 'O', 'S', 'B', '2', '\r', '\n'}

// IsBinary reports whether data opens with the v2 container magic.
func IsBinary(data []byte) bool {
	return len(data) >= len(binaryMagic) && bytes.Equal(data[:len(binaryMagic)], binaryMagic[:])
}

// ParseEncoding resolves a -codec flag value to an encoding name.
func ParseEncoding(s string) (string, error) {
	switch s {
	case "", EncodingJSON:
		return EncodingJSON, nil
	case EncodingBinary:
		return EncodingBinary, nil
	}
	return "", fmt.Errorf("shard: unknown codec %q (want %q or %q)", s, EncodingJSON, EncodingBinary)
}

// SniffFileEncoding reports which encoding the file at path carries, from
// its leading bytes alone (it never decodes the file).
func SniffFileEncoding(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("shard: %w", err)
	}
	defer f.Close()
	head := make([]byte, len(binaryMagic))
	n, _ := f.Read(head)
	if IsBinary(head[:n]) {
		return EncodingBinary, nil
	}
	return EncodingJSON, nil
}

// EncodeAs renders the file in the named encoding.
func (f *File) EncodeAs(encoding string) ([]byte, error) {
	switch encoding {
	case EncodingJSON:
		return f.Encode()
	case EncodingBinary:
		return f.EncodeBinary()
	}
	return nil, fmt.Errorf("shard: unknown encoding %q", encoding)
}

// WriteFileAs writes the file to path in the named encoding.
func (f *File) WriteFileAs(path, encoding string) error {
	data, err := f.EncodeAs(encoding)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// ---- payload codecs ----

// PayloadCodec serialises one experiment's cell payloads: a cell's Data
// is the codec's typed value, and v1 JSON, the v2 column and the cell
// cache's records are serialisers of it. Codecs are registered per
// (experiment, payload version). The interface is sealed: NewCodec
// builds typed codecs, and payload layouts without one travel under the
// generic JSON codec (PayloadCodecFor), whose value is a json.RawMessage.
// A typed codec decodes and renders v1 JSON cells through the field
// table NewCodec builds from its payload type: bool, the signed int
// kinds, float64 and string, nested in structs, pointers and slices.
type PayloadCodec interface {
	// Pack appends the binary record of one payload (a Cell.Data value).
	Pack(w *ColumnWriter, v any) error
	// Unpack reads one record per cell from untrusted r into the cells'
	// Data, backing all of them with one allocation.
	Unpack(r *ColumnReader, cells []Cell) error
	// decodeCells decodes the v1 JSON cell array next in s strictly,
	// backing all the payloads with one allocation.
	decodeCells(s *jsonScanner) ([]Cell, error)
	// render appends one payload (a Cell.Data value) to w as
	// json.MarshalIndent renders it, laid out at depth.
	render(w *jsonWriter, v any, depth int)
	// column names the v2 payload column kind the codec writes.
	column() string
}

// NewCodec returns the typed PayloadCodec for payload type T: cells
// carry *T, and pack and unpack must be exact inverses (floats as raw
// bits, nil-ness as an explicit flag), so an unpacked value renders
// exactly as the packed one did.
//
// NewCodec also builds T's v1 JSON field table, on every call, so a
// caller builds each codec once and keeps it. The table both decodes
// and renders v1 cells: the bytes a *T renders as are json.Marshal's.
// T may be built of bool, the signed int kinds, float64 and string,
// nested in structs, pointers and slices. Anything encoding/json would
// read or write otherwise panics — a wiring bug, as duplicate
// registration is: any other kind, a type with its own JSON or text
// marshaler or unmarshaler, json.Number, a recursive type, an embedded
// field, or a tag option other than omitempty.
func NewCodec[T any](pack func(w *ColumnWriter, v *T), unpack func(r *ColumnReader, v *T) error) PayloadCodec {
	dec, render := newJSONType(reflect.TypeFor[T](), map[reflect.Type]bool{})
	return typedCodec[T]{pack: pack, unpack: unpack, dec: dec, renderT: render}
}

type typedCodec[T any] struct {
	pack    func(w *ColumnWriter, v *T)
	unpack  func(r *ColumnReader, v *T) error
	dec     jsonDecoder
	renderT jsonRenderer
}

func (c typedCodec[T]) Pack(w *ColumnWriter, v any) error {
	p, ok := v.(*T)
	if !ok || p == nil {
		return fmt.Errorf("payload is %T, codec packs %T", v, p)
	}
	c.pack(w, p)
	return nil
}

func (c typedCodec[T]) Unpack(r *ColumnReader, cells []Cell) error {
	vals := make([]T, len(cells))
	for i := range cells {
		if err := c.unpack(r, &vals[i]); err != nil {
			return fmt.Errorf("payload %d: %w", i, err)
		}
		cells[i].Data = &vals[i]
	}
	return nil
}

func (c typedCodec[T]) decodeCells(s *jsonScanner) ([]Cell, error) {
	cells, vals, err := decodeCellArray(s, func(s *jsonScanner, v *T) error {
		return c.dec(s, reflect.ValueOf(v).Elem())
	})
	for i := range vals {
		cells[i].Data = &vals[i]
	}
	return cells, err
}

// render renders a *T through the field table; a payload of any other
// type renders as json.Marshal renders it.
func (c typedCodec[T]) render(w *jsonWriter, v any, depth int) {
	if p, ok := v.(*T); ok && p != nil {
		c.renderT(w, reflect.ValueOf(p).Elem(), depth)
		return
	}
	w.marshal(v, depth)
}

func (typedCodec[T]) column() string { return columnNative }

// jsonCodec is the generic codec of experiments without a typed one:
// the value is the payload's json.RawMessage, and its record is the
// length-prefixed compact JSON (the v2 "json" column kind).
type jsonCodec struct{}

func (jsonCodec) Pack(w *ColumnWriter, v any) error {
	b, err := json.Marshal(v) // compacts a RawMessage; nil is "null", as in v1
	if err != nil {
		return err
	}
	w.Blob(b)
	return nil
}

func (jsonCodec) Unpack(r *ColumnReader, cells []Cell) error {
	for i := range cells {
		b, err := r.Blob()
		if err != nil {
			return err
		}
		// Compacting validates: a blob that is not one JSON value is corrupt.
		var buf bytes.Buffer
		if err := json.Compact(&buf, b); err != nil {
			return fmt.Errorf("payload %d: %w", i, err)
		}
		cells[i].Data = json.RawMessage(buf.Bytes())
	}
	return nil
}

func (jsonCodec) decodeCells(s *jsonScanner) ([]Cell, error) {
	cells, vals, err := decodeCellArray(s, func(s *jsonScanner, v *json.RawMessage) error {
		raw, err := s.skip(2) // inside the cell array and the cell
		*v = append((*v)[:0], raw...)
		return err
	})
	for i := range vals {
		cells[i].Data = vals[i]
	}
	return cells, err
}

func (jsonCodec) render(w *jsonWriter, v any, depth int) { w.marshal(v, depth) }

func (jsonCodec) column() string { return columnJSON }

type payloadKey struct {
	experiment string
	version    int
}

var (
	payloadMu     sync.RWMutex
	payloadCodecs = map[payloadKey]PayloadCodec{}
)

// RegisterPayloadCodec adds the codec for one experiment's payload
// layout version. The experiment registry calls it as experiments
// register; duplicate registration panics — a wiring bug, not a runtime
// condition.
func RegisterPayloadCodec(experiment string, version int, c PayloadCodec) {
	payloadMu.Lock()
	defer payloadMu.Unlock()
	k := payloadKey{experiment, version}
	if _, dup := payloadCodecs[k]; dup {
		panic(fmt.Sprintf("shard: payload codec for %q v%d registered twice", experiment, version))
	}
	payloadCodecs[k] = c
}

// LookupPayloadCodec returns the codec registered for the experiment's
// payload layout version.
func LookupPayloadCodec(experiment string, version int) (PayloadCodec, bool) {
	payloadMu.RLock()
	defer payloadMu.RUnlock()
	c, ok := payloadCodecs[payloadKey{experiment, version}]
	return c, ok
}

// PayloadCodecFor returns the registered codec, or the generic JSON
// codec for payload layouts without one.
func PayloadCodecFor(experiment string, version int) PayloadCodec {
	if c, ok := LookupPayloadCodec(experiment, version); ok {
		return c
	}
	return jsonCodec{}
}

// ---- column primitives ----

// ColumnWriter appends the primitive encodings the v2 container and the
// payload codecs are built from: unsigned and zigzag varints, raw IEEE
// float bits, single-byte bools and length-prefixed byte strings.
type ColumnWriter struct {
	buf []byte
}

// Bytes returns everything written so far.
func (w *ColumnWriter) Bytes() []byte { return w.buf }

// Uvarint appends an unsigned varint.
func (w *ColumnWriter) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends a zigzag-encoded signed varint.
func (w *ColumnWriter) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Float64 appends the value's raw IEEE-754 bits (little-endian, 8
// bytes); the round trip is bit-exact, so re-marshalled JSON numbers
// come out byte-identical.
func (w *ColumnWriter) Float64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// Bool appends one byte, 0 or 1.
func (w *ColumnWriter) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Byte appends one raw byte.
func (w *ColumnWriter) Byte(b byte) { w.buf = append(w.buf, b) }

// Blob appends a length-prefixed byte string.
func (w *ColumnWriter) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *ColumnWriter) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// ColumnReader consumes ColumnWriter's encodings with every read bounds-
// checked against the remaining bytes, so a decoder built on it can be
// handed untrusted data and fail with an error instead of a panic.
type ColumnReader struct {
	data []byte
	off  int
}

// NewColumnReader reads from data.
func NewColumnReader(data []byte) *ColumnReader { return &ColumnReader{data: data} }

// Remaining returns the number of unread bytes.
func (r *ColumnReader) Remaining() int { return len(r.data) - r.off }

// Uvarint reads one unsigned varint.
func (r *ColumnReader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("shard: truncated or overlong uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Varint reads one zigzag-encoded signed varint.
func (r *ColumnReader) Varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("shard: truncated or overlong varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Int reads a uvarint that must fit a non-negative int.
func (r *ColumnReader) Int() (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(math.MaxInt) {
		return 0, fmt.Errorf("shard: value %d overflows int", v)
	}
	return int(v), nil
}

// Float64 reads raw IEEE-754 bits. NaN and infinities are rejected: no
// payload holds one, and v1 JSON could not render it.
func (r *ColumnReader) Float64() (float64, error) {
	if r.Remaining() < 8 {
		return 0, fmt.Errorf("shard: truncated float64 at offset %d", r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("shard: non-finite float64 at offset %d", r.off)
	}
	r.off += 8
	return v, nil
}

// Bool reads one byte that must be 0 or 1.
func (r *ColumnReader) Bool() (bool, error) {
	b, err := r.Byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("shard: bool byte %d at offset %d", b, r.off-1)
	}
	return b == 1, nil
}

// Byte reads one raw byte.
func (r *ColumnReader) Byte() (byte, error) {
	if r.Remaining() < 1 {
		return 0, fmt.Errorf("shard: truncated byte at offset %d", r.off)
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

// Blob reads a length-prefixed byte string, validating the declared
// length against the bytes present before touching them. The returned
// slice aliases the reader's buffer.
func (r *ColumnReader) Blob() ([]byte, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n > r.Remaining() {
		return nil, fmt.Errorf("shard: blob declares %d bytes, %d remain", n, r.Remaining())
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// String reads a length-prefixed string, which must be valid UTF-8 (v1
// JSON would silently rewrite anything else).
func (r *ColumnReader) String() (string, error) {
	b, err := r.Blob()
	if err == nil && !utf8.Valid(b) {
		err = fmt.Errorf("shard: invalid UTF-8 string before offset %d", r.off)
	}
	return string(b), err
}

// ---- v2 container ----

// Column kinds of one run's payload column.
const (
	columnJSON   = "json"   // per cell: uvarint length + compact JSON
	columnNative = "native" // packed by the run's registered typed codec
)

// binHeader is the v2 container's JSON header: File minus the cells
// (which follow column-wise) and minus Params (which follows as a
// verbatim blob, so its bytes survive the round trip untouched by JSON
// re-escaping).
type binHeader struct {
	Version   int          `json:"version"`
	Selection string       `json:"selection"`
	Shards    int          `json:"shards"`
	Index     int          `json:"shard_index"`
	Host      string       `json:"host,omitempty"`
	Partial   *PartialInfo `json:"partial,omitempty"`
	Batch     *BatchInfo   `json:"batch,omitempty"`
	Runs      []binRun     `json:"runs"`
}

// binRun describes one run's columns.
type binRun struct {
	Experiment     string `json:"experiment"`
	Grid           Grid   `json:"grid"`
	PayloadVersion int    `json:"payload_version,omitempty"`
	// Cells is the row count of every column that follows.
	Cells int `json:"cells"`
	// Column is the payload column's kind: columnJSON or columnNative.
	Column string `json:"column"`
}

// EncodeBinary renders the file as a v2 columnar container, each run's
// payload column packed by its PayloadCodec (PayloadCodecFor). Like
// Encode, the output is deterministic in the file's content.
func (f *File) EncodeBinary() ([]byte, error) {
	hdr := binHeader{
		Version:   f.Version,
		Selection: f.Selection,
		Shards:    f.Shards,
		Index:     f.Index,
		Host:      f.Host,
		Partial:   f.Partial,
		Batch:     f.Batch,
	}
	codecs := make([]PayloadCodec, len(f.Runs))
	for ri, run := range f.Runs {
		codecs[ri] = PayloadCodecFor(run.Experiment, run.PayloadVersion)
		hdr.Runs = append(hdr.Runs, binRun{
			Experiment:     run.Experiment,
			Grid:           run.Grid,
			PayloadVersion: run.PayloadVersion,
			Cells:          len(run.Cells),
			Column:         codecs[ri].column(),
		})
	}
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("shard: encode: %w", err)
	}
	w := &ColumnWriter{buf: append([]byte(nil), binaryMagic[:]...)}
	w.Blob(hdrJSON)
	w.Blob(f.Params)
	col := &ColumnWriter{}
	for ri, run := range f.Runs {
		for _, c := range run.Cells {
			w.Uvarint(uint64(c.Point))
		}
		for _, c := range run.Cells {
			w.Uvarint(uint64(c.System))
		}
		for _, c := range run.Cells {
			w.Varint(c.Seed)
		}
		col.buf = col.buf[:0]
		for _, c := range run.Cells {
			if err := codecs[ri].Pack(col, c.Data); err != nil {
				return nil, fmt.Errorf("shard: run %q cell (%d,%d): %w", run.Experiment, c.Point, c.System, err)
			}
		}
		w.Blob(col.Bytes())
	}
	return w.Bytes(), nil
}

// decodeBinary parses a v2 container (data starts with the magic). Every
// declared count and length is validated against the bytes present
// before it drives an allocation.
func decodeBinary(data []byte) (*File, error) {
	r := NewColumnReader(data[len(binaryMagic):])
	hdrJSON, err := r.Blob()
	if err != nil {
		return nil, fmt.Errorf("shard: decode: header: %w", err)
	}
	var hdr binHeader
	if err := json.Unmarshal(hdrJSON, &hdr); err != nil {
		return nil, fmt.Errorf("shard: decode: header: %w", err)
	}
	params, err := r.Blob()
	if err != nil {
		return nil, fmt.Errorf("shard: decode: params: %w", err)
	}
	f := &File{
		Version:   hdr.Version,
		Selection: hdr.Selection,
		Shards:    hdr.Shards,
		Index:     hdr.Index,
		Host:      hdr.Host,
		Partial:   hdr.Partial,
		Batch:     hdr.Batch,
		Encoding:  EncodingBinary,
	}
	if len(params) > 0 {
		// Params are stored verbatim (never re-escaped), but they must
		// still be one well-formed JSON value or re-rendering the file as
		// v1 would fail.
		if !json.Valid(params) {
			return nil, fmt.Errorf("shard: decode: params blob is not valid JSON")
		}
		f.Params = json.RawMessage(params)
	}
	if hdr.Version != FormatVersion {
		return nil, fmt.Errorf("shard: file format version %d, this build reads %d", hdr.Version, FormatVersion)
	}
	for _, br := range hdr.Runs {
		run := Run{Experiment: br.Experiment, Grid: br.Grid, PayloadVersion: br.PayloadVersion}
		if err := br.Grid.Validate(); err != nil {
			return nil, fmt.Errorf("shard: run %q: %w", br.Experiment, err)
		}
		if br.Cells < 0 || br.Cells > br.Grid.Cells() {
			return nil, fmt.Errorf("shard: run %q declares %d cells for a %dx%d grid",
				br.Experiment, br.Cells, br.Grid.Points, br.Grid.Systems)
		}
		// Every cell needs at least one byte in each of the three key
		// columns; a count the remaining bytes cannot possibly hold is
		// rejected before it sizes an allocation.
		if br.Cells > r.Remaining() {
			return nil, fmt.Errorf("shard: run %q declares %d cells, only %d bytes remain",
				br.Experiment, br.Cells, r.Remaining())
		}
		cells := make([]Cell, br.Cells)
		for i := range cells {
			if cells[i].Point, err = r.Int(); err != nil {
				return nil, fmt.Errorf("shard: run %q points column: %w", br.Experiment, err)
			}
		}
		for i := range cells {
			if cells[i].System, err = r.Int(); err != nil {
				return nil, fmt.Errorf("shard: run %q systems column: %w", br.Experiment, err)
			}
		}
		for i := range cells {
			if cells[i].Seed, err = r.Varint(); err != nil {
				return nil, fmt.Errorf("shard: run %q seeds column: %w", br.Experiment, err)
			}
		}
		col, err := r.Blob()
		if err != nil {
			return nil, fmt.Errorf("shard: run %q payload column: %w", br.Experiment, err)
		}
		if err := decodePayloadColumn(br, col, cells); err != nil {
			return nil, fmt.Errorf("shard: run %q payload column: %w", br.Experiment, err)
		}
		run.Cells = cells
		f.Runs = append(f.Runs, run)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("shard: decode: %d trailing bytes after the last column", r.Remaining())
	}
	if err := f.validateDecoded(); err != nil {
		return nil, err
	}
	return f, nil
}

// decodePayloadColumn unpacks one run's payload column by its declared
// kind into the cells' Data. A JSON column of a run with a typed codec is
// the legacy column older builds wrote when a payload did not pack; it
// is read strictly into the typed values.
func decodePayloadColumn(br binRun, col []byte, cells []Cell) error {
	r := NewColumnReader(col)
	c, typed := LookupPayloadCodec(br.Experiment, br.PayloadVersion)
	var err error
	switch br.Column {
	case columnNative:
		if !typed {
			return fmt.Errorf("shard: no payload codec registered for %q v%d (written by a build that had one)",
				br.Experiment, br.PayloadVersion)
		}
		err = c.Unpack(r, cells)
	case columnJSON:
		if typed {
			err = unpackLegacyJSON(c, r, cells)
		} else {
			err = jsonCodec{}.Unpack(r, cells)
		}
	default:
		return fmt.Errorf("shard: unknown payload column kind %q", br.Column)
	}
	if err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("shard: %d trailing bytes", r.Remaining())
	}
	return nil
}

// unpackLegacyJSON reads a JSON payload column into a typed codec's
// values: the generic codec reads (and validates) the blobs, and the
// cells decode strictly into the typed values through the v1 reader.
func unpackLegacyJSON(c PayloadCodec, r *ColumnReader, cells []Cell) error {
	if err := (jsonCodec{}).Unpack(r, cells); err != nil {
		return err
	}
	arr, err := json.Marshal(cells)
	if err != nil {
		return err
	}
	typed, err := c.decodeCells(&jsonScanner{data: arr})
	if err != nil {
		return err
	}
	for i := range cells {
		cells[i].Data = typed[i].Data
	}
	return nil
}
