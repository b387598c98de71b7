package shard

// The v1 container decoder: one strict scanner over the file's bytes.
// Its input language is the one the encoding/json Token/Decode reader
// it replaced accepted, and what it accepts decodes to the same File
// (the test-only reference decoder in jsonref_test.go pins both under
// FuzzDecodeJSON):
//
//   - any JSON whitespace, any key order; keys match as encoding/json
//     matches them (case-insensitively, after unescaping), a repeated
//     key decodes again into what the earlier one left;
//   - each run's cells decode straight into the payload type of the
//     run's codec (PayloadCodecFor), strictly: an unknown or wrong-typed
//     field is an error naming the cell;
//   - the header fields (params, partial, batch, grid and any unknown
//     key) are collected verbatim and decoded by json.Unmarshal, and so
//     is every string or key token holding a '\' or a byte >= 0x80, so
//     unescaping and U+FFFD replacement are encoding/json's own.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// maxJSONDepth is encoding/json's nesting limit for one scanned value.
const maxJSONDepth = 10000

// jsonScanner reads JSON tokens from data, validating as it goes.
type jsonScanner struct {
	data []byte
	off  int
}

// The keys each level of the container decodes itself, in the order
// Encode writes them; any other key is collected for json.Unmarshal.
var (
	fileKeys = []string{"runs"}
	runKeys  = []string{"experiment", "payload_version", "cells"}
	cellKeys = []string{"point", "system", "seed", "data"}
)

// decodeJSON parses a v1 file.
func decodeJSON(data []byte) (*File, error) {
	s := &jsonScanner{data: data}
	f := &File{Encoding: EncodingJSON}
	header := []byte{'{'}
	err := s.object(fileKeys, func(i int, k jsonKey) error {
		if i < 0 {
			return s.collect(&header, k)
		}
		switch s.ws() {
		case 'n': // "runs": null leaves the runs as they are
			return s.literal("null")
		case '[':
		default:
			return s.errorf("runs: want an array")
		}
		f.Runs = []Run{}
		return s.elements(func() error {
			r, err := s.run()
			f.Runs = append(f.Runs, r)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	if s.ws(); s.off != len(data) {
		return nil, fmt.Errorf("trailing data after the file object")
	}
	return f, json.Unmarshal(append(header, '}'), f)
}

// run reads one run object. Its cells decode with the codec of the
// layout keys read before them, as Encode writes them; cells that come
// first (a hand-edited file) are held as raw JSON until the object ends.
func (s *jsonScanner) run() (Run, error) {
	var r Run
	var raw []byte // cells read before the experiment name
	var direct *payloadKey
	rest := []byte{'{'} // grid and unknown keys
	err := s.object(runKeys, func(i int, k jsonKey) (err error) {
		switch {
		case i == 0:
			return s.stringInto(&r.Experiment)
		case i == 1:
			return s.intInto(&r.PayloadVersion)
		case i < 0:
			return s.collect(&rest, k)
		case r.Experiment == "":
			raw, err = s.skip(0)
			return err
		}
		c := PayloadCodecFor(r.Experiment, r.PayloadVersion)
		if r.Cells, err = c.decodeCells(s); err != nil {
			return fmt.Errorf("run %q %w", r.Experiment, err)
		}
		direct = &payloadKey{r.Experiment, r.PayloadVersion}
		return nil
	})
	if err == nil && len(rest) > 1 {
		err = json.Unmarshal(append(rest, '}'), &r)
	}
	switch {
	case err != nil:
	case raw != nil:
		c := PayloadCodecFor(r.Experiment, r.PayloadVersion)
		if r.Cells, err = c.decodeCells(&jsonScanner{data: raw}); err != nil {
			err = fmt.Errorf("run %q %w", r.Experiment, err)
		}
	case direct != nil && *direct != (payloadKey{r.Experiment, r.PayloadVersion}):
		err = fmt.Errorf("run %q: experiment or payload_version follows the cells", r.Experiment)
	}
	return r, err
}

// decodeCellArray decodes the v1 cell array next in s strictly, as
// encoding/json decodes it into a slice of {point, system, seed, data}
// structs: data decodes one payload into its slot of one []T. A failing
// element is named by its cell.
func decodeCellArray[T any](s *jsonScanner, data func(s *jsonScanner, v *T) error) ([]Cell, []T, error) {
	switch s.ws() {
	case 'n':
		return nil, nil, s.literal("null")
	case '[':
	default:
		return nil, nil, s.errorf("cells: want an array")
	}
	cells, vals := []Cell{}, []T(nil)
	err := s.elements(func() error {
		if len(cells) == cap(cells) {
			// Short arrays double; a long one is sized to the elements
			// left, so what its growth allocates stays a fixed multiple
			// of the bytes it holds.
			n := len(cells) + 8
			if len(cells) >= 128 {
				n = s.elementsLeft()
			}
			cells, vals = extend(cells, n), extend(vals, n)
		}
		cells, vals = append(cells, Cell{}), append(vals, *new(T))
		c, v := &cells[len(cells)-1], &vals[len(vals)-1]
		start := s.off
		var err error
		switch s.ws() {
		case 'n':
			err = s.literal("null")
		case '{':
			err = s.object(cellKeys, func(i int, k jsonKey) error {
				switch i {
				case 0:
					return s.intInto(&c.Point)
				case 1:
					return s.intInto(&c.System)
				case 2:
					n, ok, err := s.integer()
					if ok {
						c.Seed = n
					}
					return err
				case 3:
					return data(s, v)
				}
				return k.unknown()
			})
		default:
			err = s.errorf("cell: want an object")
		}
		if err != nil {
			return s.blame(start, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return cells, vals, nil
}

// extend returns a copy of s with room for exactly n more elements.
func extend[T any](s []T, n int) []T {
	return append(make([]T, 0, len(s)+n), s...)
}

// elementsLeft returns how many elements the array s is inside holds
// from s.off (the start of an element) on, by a structural scan the
// decode then validates, capped at what the bytes left could hold.
func (s *jsonScanner) elementsLeft() int {
	d, n, depth := s.data, 1, 1
	for i := s.off; i < len(d) && depth > 0; i++ {
		for i < len(d) && !structural[d[i]] {
			i++
		}
		if i == len(d) {
			break
		}
		switch d[i] {
		case '\n':
			i = skipIndent(d, i)
		case '"':
			for i++; i < len(d) && d[i] != '"'; i++ {
				if d[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ',':
			if depth == 1 {
				n++
			}
		}
	}
	return min(n, (len(d)-s.off)/3+1) // an element and its comma take 3 bytes or more
}

// structural marks the bytes elementsLeft stops at.
var structural = func() (t [256]bool) {
	for _, c := range "\"[]{},\n" {
		t[c] = true
	}
	return t
}()

// skipIndent skips an indented line's indent eight spaces at a time,
// from the newline at d[i].
func skipIndent(d []byte, i int) int {
	for i+9 <= len(d) && binary.LittleEndian.Uint64(d[i+1:]) == 0x2020202020202020 {
		i += 8
	}
	return i
}

// blame names the cell of the element at start in err, reading its
// point and system leniently, when the element is well-formed JSON.
func (s *jsonScanner) blame(start int, err error) error {
	elem, serr := (&jsonScanner{data: s.data, off: start}).skip(1)
	if serr != nil {
		return err
	}
	var at struct{ Point, System int }
	json.Unmarshal(elem, &at)
	return fmt.Errorf("cell (%d,%d) payload: %w", at.Point, at.System, err)
}

// ---- tokens ----

// jsonKey is one object key.
type jsonKey struct {
	tok   []byte // the key's string token, quotes included
	str   string // the unescaped key, when the token is not plain
	plain bool   // no escape and no byte >= 0x80: the token's contents are the key
}

// is reports whether the key matches name (an ASCII field name) as
// encoding/json matches keys to fields: exactly, or equal under simple
// Unicode case folding.
func (k jsonKey) is(name string) bool {
	if !k.plain {
		return strings.EqualFold(k.str, name)
	}
	raw := k.tok[1 : len(k.tok)-1]
	if len(raw) != len(name) {
		return false
	}
	for i := range raw {
		if a, b := raw[i], name[i]; a != b && lowerASCII(a) != lowerASCII(b) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

func (k jsonKey) unknown() error {
	if k.plain {
		return fmt.Errorf("json: unknown field %s", k.tok)
	}
	return fmt.Errorf("json: unknown field %q", k.str)
}

func (s *jsonScanner) errorf(format string, args ...any) error {
	if s.off >= len(s.data) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("%s at offset %d (%q)", fmt.Sprintf(format, args...), s.off, s.data[s.off])
}

// ws skips whitespace and returns the next byte, 0 at the end of data.
func (s *jsonScanner) ws() byte {
	d, i := s.data, s.off
	for ; i < len(d); i++ {
		switch c := d[i]; c {
		case ' ', '\t', '\r':
		case '\n':
			i = skipIndent(d, i)
		default:
			s.off = i
			return c
		}
	}
	s.off = i
	return 0
}

// next reads the comma or the closing byte end after a container's
// element, reporting whether the container ended.
func (s *jsonScanner) next(end byte) (bool, error) {
	switch s.ws() {
	case ',':
		s.off++
		return false, nil
	case end:
		s.off++
		return true, nil
	}
	return false, s.errorf("want ',' or %q", end)
}

// elements reads the array at s.off (its '['), calling elem to read each
// element.
func (s *jsonScanner) elements(elem func() error) error {
	if s.off++; s.ws() == ']' {
		s.off++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if end, err := s.next(']'); end || err != nil {
			return err
		}
	}
}

// object reads the object next in s, calling member with each key and
// the index in names of the field it names (-1 for none); member must
// read the key's value. Keys match names (ASCII identifiers) as
// jsonKey.is matches them.
func (s *jsonScanner) object(names []string, member func(i int, k jsonKey) error) error {
	if s.ws() != '{' {
		return s.errorf("want an object")
	}
	if s.off++; s.ws() == '}' {
		s.off++
		return nil
	}
	for next := 0; ; {
		i, k, err := s.key(names, next)
		if err != nil {
			return err
		}
		if err := member(i, k); err != nil {
			return err
		}
		if i >= 0 {
			next = i + 1
		}
		if end, err := s.next('}'); end || err != nil {
			return err
		}
	}
}

// key reads an object key and its colon, returning the index in names of
// the field it names (-1 for none). names[next], the key Encode writes
// next, is compared in place first.
func (s *jsonScanner) key(names []string, next int) (int, jsonKey, error) {
	if s.ws() != '"' {
		return 0, jsonKey{}, s.errorf("want an object key")
	}
	i, k, d, end := -1, jsonKey{}, s.data, -1
	if next < len(names) {
		end = s.off + 1 + len(names[next])
	}
	if end > 0 && end < len(d) && d[end] == '"' && string(d[s.off+1:end]) == names[next] {
		i, k = next, jsonKey{tok: d[s.off : end+1], plain: true}
		s.off = end + 1
	} else {
		tok, plain, err := s.str()
		if err != nil {
			return 0, jsonKey{}, err
		}
		if k = (jsonKey{tok: tok, plain: plain}); !plain {
			k.str = unescape(tok)
		}
		for j, name := range names {
			if k.is(name) {
				i = j
				break
			}
		}
	}
	if s.ws() != ':' {
		return 0, jsonKey{}, s.errorf("want ':' after an object key")
	}
	s.off++
	return i, k, nil
}

// collect appends the key and the raw value next in s to the object
// being built in obj (without its closing brace).
func (s *jsonScanner) collect(obj *[]byte, k jsonKey) error {
	v, err := s.skip(1)
	if err != nil {
		return err
	}
	if len(*obj) > 1 {
		*obj = append(*obj, ',')
	}
	*obj = append(append(append(*obj, k.tok...), ':'), v...)
	return nil
}

// str reads the string token at s.off (which holds its opening quote),
// reporting whether it is plain: free of escapes and of bytes >= 0x80.
func (s *jsonScanner) str() (tok []byte, plain bool, err error) {
	d, start := s.data, s.off
	plain = true
	for i := start + 1; i < len(d); i++ {
		for i < len(d) && plainByte[d[i]] {
			i++
		}
		if i == len(d) {
			break
		}
		switch c := d[i]; {
		case c == '"':
			s.off = i + 1
			return d[start:s.off], plain, nil
		case c == '\\':
			plain = false
			if i++; i >= len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					if i++; i < len(d) && !isHex(d[i]) {
						s.off = i
						return nil, false, s.errorf("invalid escape in string")
					}
				}
			default:
				s.off = i
				return nil, false, s.errorf("invalid escape in string")
			}
		case c < 0x20:
			s.off = i
			return nil, false, s.errorf("invalid character in string")
		case c >= 0x80:
			plain = false
		}
	}
	s.off = len(d)
	return nil, false, s.errorf("")
}

// plainByte marks the bytes a string token holds verbatim and plainly:
// not its closing quote, an escape, a control byte or a byte >= 0x80.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number reads the number token at s.off.
func (s *jsonScanner) number() ([]byte, error) {
	d, i := s.data, s.off
	digits := func() bool {
		n := i
		for i < len(d) && isDigit(d[i]) {
			i++
		}
		return i > n
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	ok := i < len(d) && d[i] == '0'
	if ok {
		i++
	} else {
		ok = digits()
	}
	if ok && i < len(d) && d[i] == '.' {
		i++
		ok = digits()
	}
	if ok && i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		ok = digits()
	}
	if !ok {
		s.off = i
		return nil, s.errorf("invalid number")
	}
	tok := d[s.off:i]
	s.off = i
	return tok, nil
}

// literal reads the literal word (true, false or null) at s.off.
func (s *jsonScanner) literal(word string) error {
	if !bytes.HasPrefix(s.data[s.off:], []byte(word)) {
		return s.errorf("invalid literal")
	}
	s.off += len(word)
	return nil
}

// skip reads one value of any type and returns its bytes. depth is the
// nesting level the value sits at inside the value encoding/json scans
// it within; like encoding/json, skip refuses more than maxJSONDepth
// levels.
func (s *jsonScanner) skip(depth int) ([]byte, error) {
	c := s.ws()
	start := s.off
	var err error
	switch {
	case (c == '{' || c == '[') && depth >= maxJSONDepth:
		err = s.errorf("exceeded max depth")
	case c == '{':
		err = s.object(nil, func(int, jsonKey) error {
			_, err := s.skip(depth + 1)
			return err
		})
	case c == '[':
		err = s.elements(func() error {
			_, err := s.skip(depth + 1)
			return err
		})
	case c == '"':
		_, _, err = s.str()
	case c == 't':
		err = s.literal("true")
	case c == 'f':
		err = s.literal("false")
	case c == 'n':
		err = s.literal("null")
	default:
		_, err = s.number()
	}
	if err != nil {
		return nil, err
	}
	return s.data[start:s.off], nil
}

// stringInto reads a string (or null, which leaves *dst as it is).
func (s *jsonScanner) stringInto(dst *string) error {
	switch s.ws() {
	case 'n':
		return s.literal("null")
	case '"':
		tok, plain, err := s.str()
		if err != nil {
			return err
		}
		if plain {
			*dst = string(tok[1 : len(tok)-1])
		} else {
			*dst = unescape(tok)
		}
		return nil
	}
	return s.errorf("want a string")
}

// unescape returns the string an escaped or non-ASCII string token
// holds, as encoding/json reads it.
func unescape(tok []byte) string {
	var v string
	json.Unmarshal(tok, &v) // a scanned token always unquotes
	return v
}

// integer reads an integer; null reads as ok == false.
func (s *jsonScanner) integer() (n int64, ok bool, err error) {
	tok, err := s.numberOrNull()
	if tok == nil || err != nil {
		return 0, false, err
	}
	if n, ok := smallInt(tok); ok {
		return n, true, nil
	}
	if n, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
		return 0, false, fmt.Errorf("json: cannot unmarshal number %s into an integer", tok)
	}
	return n, true, nil
}

// smallInt parses an integer token of at most 18 digits, which cannot
// overflow, as strconv.ParseInt would; ok is false for any other token.
func smallInt(tok []byte) (n int64, ok bool) {
	digits := tok
	if tok[0] == '-' {
		digits = tok[1:]
	}
	if len(digits) > 18 {
		return 0, false
	}
	for _, c := range digits {
		if !isDigit(c) {
			return 0, false
		}
		n = 10*n + int64(c-'0')
	}
	if tok[0] == '-' {
		n = -n
	}
	return n, true
}

// intInto reads an integer that fits an int (or null, which leaves
// *dst as it is).
func (s *jsonScanner) intInto(dst *int) error {
	n, ok, err := s.integer()
	if ok {
		if int64(int(n)) != n {
			return fmt.Errorf("json: number %d overflows int", n)
		}
		*dst = int(n)
	}
	return err
}

// numberOrNull reads a number token, or null (a nil token).
func (s *jsonScanner) numberOrNull() ([]byte, error) {
	switch c := s.ws(); {
	case c == 'n':
		return nil, s.literal("null")
	case c == '-' || isDigit(c):
		return s.number()
	}
	return nil, s.errorf("want a number")
}
