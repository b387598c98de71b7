package shard

// The v1 container encoder. Encode renders the file in one pass into one
// buffer, sized once from the file, and writes exactly the bytes of
// json.MarshalIndent(f, "", "  ") and a newline
// (TestEncodeMatchesMarshalIndent and FuzzDecodeJSON pin them):
//
//   - the container's own fields (header, runs, cells) are written
//     directly, and the partial and batch headers through their field
//     tables;
//   - a typed run's *T payload renders through the field table NewCodec
//     built for T (jsonpayload.go), which also decodes it;
//   - every other value — the params, an untyped run's json.RawMessage, a
//     typed run's payload of another type — is json.Marshal's compact
//     rendering laid out at its depth by indentJSON.

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// jsonWriter is the buffer a v1 render appends to, and the first error
// a value failed to render with.
type jsonWriter struct {
	buf   []byte
	err   error
	depth int        // the depth Write lays values out at
	page  [4096]byte // Encode's scratch, allocated with the writer
}

// fail records err unless an earlier error is recorded.
func (w *jsonWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// marshal appends json.Marshal's rendering of v laid out at depth: the
// path of every value without a field table. A json.Encoder writes
// json.Marshal's bytes, and a newline, straight to w.Write.
func (w *jsonWriter) marshal(v any, depth int) {
	w.depth = depth
	if err := json.NewEncoder(w).Encode(v); err != nil {
		w.fail(err)
	}
}

// Write appends one value a json.Encoder wrote, its trailing newline
// dropped, laid out at w.depth.
func (w *jsonWriter) Write(p []byte) (int, error) {
	w.buf = indentJSON(w.buf, p[:len(p)-1], w.depth)
	return len(p), nil
}

// float appends f as encoding/json writes a float64: 'f' format, 'e' for
// magnitudes below 1e-6 or from 1e21 on with "e-07" cut to "e-7", and
// the same error for NaN and the infinities.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.fail(&json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.buf = b
}

// appendString appends s quoted as encoding/json quotes a string: '"',
// '\\' and the control characters escaped, '<', '>' and '&' as \u00XX,
// each invalid UTF-8 byte as \ufffd, and U+2028 and U+2029 as \u2028 and
// \u2029.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// The field tables of the header values Encode renders, built once.
var (
	_, renderPartial = newJSONType(reflect.TypeFor[PartialInfo](), map[reflect.Type]bool{})
	_, renderBatch   = newJSONType(reflect.TypeFor[BatchInfo](), map[reflect.Type]bool{})
)

// The fixed text that closes a run's cell array and the run, and the
// file's run array and the file.
const (
	closeCells = "\n      ]\n    }"
	closeRuns  = "\n  ]\n}\n"
)

// Encode renders the file as indented JSON. The encoding is deterministic
// — struct fields in declaration order, cells in the order they are held
// — so identical runs produce byte-identical shard files. The bytes are
// json.MarshalIndent(f, "", "  ")'s plus a newline, rendered into one
// buffer sized once from the file: the container's fields directly, a
// typed payload through its codec's field table (the one that also
// decodes it), and any other value through json.Marshal. A payload that
// cannot render (NaN or an infinity) fails naming its run and cell.
func (f *File) Encode() ([]byte, error) {
	// The header renders into the writer's page of scratch. Each run
	// counts its cell count times the largest of its sampled cells (its
	// first, middle and last), rendered past the header and truncated
	// away again.
	w := new(jsonWriter)
	w.buf = w.page[:0]
	w.header(f)
	if w.err != nil {
		return nil, fmt.Errorf("shard: encode: %w", w.err)
	}
	header := len(w.buf)
	size := len(closeRuns) + len(f.Runs)
	for i := range f.Runs {
		r, n := &f.Runs[i], len(f.Runs[i].Cells)
		w.runHead(r)
		size += len(w.buf) - header + len(closeCells)
		codec, cell := PayloadCodecFor(r.Experiment, r.PayloadVersion), 0
		samples := [...]int{0, n / 2, n - 1} // distinct in their first min(n, 3)
		for _, j := range samples[:min(n, 3)] {
			at := len(w.buf)
			if w.cell(&r.Cells[j], codec); w.err != nil {
				return nil, cellError(r, j, w.err)
			}
			cell = max(cell, len(w.buf)-at+1)
		}
		size += n * cell
		w.buf = w.buf[:header]
	}
	w.buf = append(make([]byte, 0, header+size), w.buf...)
	switch {
	case f.Runs == nil:
		return append(w.buf, "null\n}\n"...), nil
	case len(f.Runs) == 0:
		return append(w.buf, "[]\n}\n"...), nil
	}
	w.buf = append(w.buf, '[')
	for i := range f.Runs {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		if err := w.run(&f.Runs[i]); err != nil {
			return nil, err
		}
	}
	return append(w.buf, closeRuns...), nil
}

// run appends a run object at depth 2, after its newline and indent. A
// cell that fails to render fails it, named.
func (w *jsonWriter) run(r *Run) error {
	w.runHead(r)
	switch {
	case r.Cells == nil:
		w.buf = append(w.buf, "null\n    }"...)
		return nil
	case len(r.Cells) == 0:
		w.buf = append(w.buf, "[]\n    }"...)
		return nil
	}
	codec := PayloadCodecFor(r.Experiment, r.PayloadVersion)
	w.buf = append(w.buf, '[')
	for j := range r.Cells {
		if j > 0 {
			w.buf = append(w.buf, ',')
		}
		if w.cell(&r.Cells[j], codec); w.err != nil {
			return cellError(r, j, w.err)
		}
	}
	w.buf = append(w.buf, closeCells...)
	return nil
}

// cellError names the run and cell j of r in a render error.
func cellError(r *Run, j int, err error) error {
	return fmt.Errorf("shard: encode: run %q cell (%d,%d): %w", r.Experiment, r.Cells[j].Point, r.Cells[j].System, err)
}

// header appends the file object up to the value of its "runs" key.
func (w *jsonWriter) header(f *File) {
	w.buf = append(w.buf, "{\n  \"version\": "...)
	w.buf = strconv.AppendInt(w.buf, int64(f.Version), 10)
	w.buf = append(w.buf, ",\n  \"selection\": "...)
	w.buf = appendString(w.buf, f.Selection)
	w.buf = append(w.buf, ",\n  \"shards\": "...)
	w.buf = strconv.AppendInt(w.buf, int64(f.Shards), 10)
	w.buf = append(w.buf, ",\n  \"shard_index\": "...)
	w.buf = strconv.AppendInt(w.buf, int64(f.Index), 10)
	w.buf = append(w.buf, ",\n  \"params\": "...)
	w.marshal(&f.Params, 1)
	if f.Host != "" {
		w.buf = append(w.buf, ",\n  \"host\": "...)
		w.buf = appendString(w.buf, f.Host)
	}
	if f.Partial != nil {
		w.buf = append(w.buf, ",\n  \"partial\": "...)
		renderPartial(w, reflect.ValueOf(f.Partial).Elem(), 1)
	}
	if f.Batch != nil {
		w.buf = append(w.buf, ",\n  \"batch\": "...)
		renderBatch(w, reflect.ValueOf(f.Batch).Elem(), 1)
	}
	w.buf = append(w.buf, ",\n  \"runs\": "...)
}

// runHead appends a run object, at depth 2 after its newline and indent,
// up to the value of its "cells" key.
func (w *jsonWriter) runHead(r *Run) {
	w.buf = append(w.buf, "\n    {\n      \"experiment\": "...)
	w.buf = appendString(w.buf, r.Experiment)
	w.buf = append(w.buf, ",\n      \"grid\": {\n        \"points\": "...)
	w.buf = strconv.AppendInt(w.buf, int64(r.Grid.Points), 10)
	w.buf = append(w.buf, ",\n        \"systems\": "...)
	w.buf = strconv.AppendInt(w.buf, int64(r.Grid.Systems), 10)
	w.buf = append(w.buf, "\n      }"...)
	if r.PayloadVersion != 0 {
		w.buf = append(w.buf, ",\n      \"payload_version\": "...)
		w.buf = strconv.AppendInt(w.buf, int64(r.PayloadVersion), 10)
	}
	w.buf = append(w.buf, ",\n      \"cells\": "...)
}

// cell appends one cell object at depth 4, after its newline and indent,
// its payload rendered by the run's codec.
func (w *jsonWriter) cell(c *Cell, codec PayloadCodec) {
	w.buf = append(w.buf, "\n        {\n          \"point\": "...)
	w.buf = strconv.AppendInt(w.buf, int64(c.Point), 10)
	w.buf = append(w.buf, ",\n          \"system\": "...)
	w.buf = strconv.AppendInt(w.buf, int64(c.System), 10)
	w.buf = append(w.buf, ",\n          \"seed\": "...)
	w.buf = strconv.AppendInt(w.buf, c.Seed, 10)
	w.buf = append(w.buf, ",\n          \"data\": "...)
	codec.render(w, c.Data, 5)
	w.buf = append(w.buf, "\n        }"...)
}

// indentJSON appends src, valid compact JSON as json.Marshal writes it,
// laid out as json.Indent(dst, src, "", "  ") lays it out as if src
// opened depth levels deep: a newline and two spaces per level after
// every opening bracket and comma, a space after every colon, and "{}"
// and "[]" for empty containers. String tokens are copied verbatim.
func indentJSON(dst, src []byte, depth int) []byte {
	open := false // the last token opened a container
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
			continue
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
			continue
		case ':':
			dst = append(dst, ':', ' ')
			continue
		}
		if open {
			open = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '{', '[':
			dst = append(dst, c)
			open = true
		case '"':
			j := i + 1
			for ; j < len(src) && src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			dst = append(dst, src[i:min(j+1, len(src))]...)
			i = j
		default: // a number or literal runs to the next delimiter
			j := i + 1
			for j < len(src) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j - 1
		}
	}
	return dst
}

// appendNewline appends a newline and depth levels of two-space indent.
func appendNewline(dst []byte, depth int) []byte {
	const spaces = "\n                                                                "
	dst = append(dst, spaces[:min(2*depth+1, len(spaces))]...)
	for n := 2*depth + 1 - len(spaces); n > 0; n-- {
		dst = append(dst, ' ')
	}
	return dst
}
