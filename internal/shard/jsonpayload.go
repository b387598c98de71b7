package shard

import (
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// jsonDecoder decodes the JSON value next in s into v, a settable value
// of the type it was built for, as a strict encoding/json Decoder
// (DisallowUnknownFields) decodes into an existing value: null leaves a
// bool, number, string or struct as it is and sets a pointer or slice to
// nil; an object decodes into the struct's current fields; an array
// decodes into the slice's current elements, as encoding/json reuses
// them.
type jsonDecoder func(s *jsonScanner, v reflect.Value) error

// jsonRenderer appends v, a value of the type it was built for, to w as
// json.MarshalIndent(v, "", "  ") renders it, laid out as if v opened
// depth levels deep: encoding/json's float formatting and HTML-safe
// string escaping, null for a nil pointer or slice, [] and {} for an
// empty one, and omitempty as encoding/json's isEmptyValue reads it.
type jsonRenderer func(w *jsonWriter, v reflect.Value, depth int)

var (
	jsonUnmarshalerType = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
	jsonMarshalerType   = reflect.TypeFor[json.Marshaler]()
	textMarshalerType   = reflect.TypeFor[encoding.TextMarshaler]()
	jsonNumberType      = reflect.TypeFor[json.Number]()
)

// newJSONType builds t's field table, its decoder and renderer: the
// table of a struct, and the element decoder and renderer of a pointer
// or slice, built once. It supports bool, the signed int kinds, float64,
// string, and structs, pointers and slices of those; it panics on any
// other kind, on a type encoding/json reads or writes through its own
// methods (a JSON or text marshaler or unmarshaler, json.Number), on a
// recursive type, and on struct fields encoding/json would treat
// specially (embedded fields, a tag option other than omitempty, names
// that are not plain ASCII identifiers, or two names that match the
// same key).
func newJSONType(t reflect.Type, building map[reflect.Type]bool) (dec jsonDecoder, render jsonRenderer) {
	if building[t] {
		panic(fmt.Sprintf("shard: payload type %v is recursive", t))
	}
	if pt := reflect.PointerTo(t); pt.Implements(jsonUnmarshalerType) || pt.Implements(textUnmarshalerType) {
		panic(fmt.Sprintf("shard: payload type %v has its own unmarshaler", t))
	}
	if pt := reflect.PointerTo(t); pt.Implements(jsonMarshalerType) || pt.Implements(textMarshalerType) || t == jsonNumberType {
		panic(fmt.Sprintf("shard: payload type %v has its own marshaler", t))
	}
	building[t] = true
	defer delete(building, t)
	switch t.Kind() {
	case reflect.Bool:
		dec = func(s *jsonScanner, v reflect.Value) error {
			switch s.ws() {
			case 'n':
				return s.literal("null")
			case 't':
				v.SetBool(true)
				return s.literal("true")
			case 'f':
				v.SetBool(false)
				return s.literal("false")
			}
			return s.typeError(t)
		}
		render = func(w *jsonWriter, v reflect.Value, _ int) {
			w.buf = strconv.AppendBool(w.buf, v.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dec = func(s *jsonScanner, v reflect.Value) error {
			n, ok, err := s.integer()
			if ok {
				if v.OverflowInt(n) {
					return fmt.Errorf("json: number %d overflows %v", n, t)
				}
				v.SetInt(n)
			}
			return err
		}
		render = func(w *jsonWriter, v reflect.Value, _ int) {
			w.buf = strconv.AppendInt(w.buf, v.Int(), 10)
		}
	case reflect.Float64:
		dec = func(s *jsonScanner, v reflect.Value) error {
			tok, err := s.numberOrNull()
			if tok == nil || err != nil {
				return err
			}
			f, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return fmt.Errorf("json: cannot unmarshal number %s into %v", tok, t)
			}
			v.SetFloat(f)
			return nil
		}
		render = func(w *jsonWriter, v reflect.Value, _ int) {
			w.float(v.Float())
		}
	case reflect.String:
		dec = func(s *jsonScanner, v reflect.Value) error {
			if c := s.ws(); c != '"' && c != 'n' {
				return s.typeError(t)
			}
			str := v.String()
			if err := s.stringInto(&str); err != nil {
				return err
			}
			v.SetString(str)
			return nil
		}
		render = func(w *jsonWriter, v reflect.Value, _ int) {
			w.buf = appendString(w.buf, v.String())
		}
	case reflect.Pointer:
		elemDec, elemRender := newJSONType(t.Elem(), building)
		dec = func(s *jsonScanner, v reflect.Value) error {
			if s.ws() == 'n' {
				v.SetZero()
				return s.literal("null")
			}
			if v.IsNil() {
				v.Set(reflect.New(t.Elem()))
			}
			return elemDec(s, v.Elem())
		}
		render = func(w *jsonWriter, v reflect.Value, depth int) {
			if v.IsNil() {
				w.buf = append(w.buf, "null"...)
				return
			}
			elemRender(w, v.Elem(), depth)
		}
	case reflect.Slice:
		elemDec, elemRender := newJSONType(t.Elem(), building)
		dec = func(s *jsonScanner, v reflect.Value) error {
			switch s.ws() {
			case 'n':
				v.SetZero()
				return s.literal("null")
			case '[':
			default:
				return s.typeError(t)
			}
			i := 0
			err := s.elements(func() error {
				// encoding/json's growth: elements past the length but
				// within the capacity are decoded into, not zeroed.
				if i >= v.Cap() {
					v.Grow(1)
				}
				if i >= v.Len() {
					v.SetLen(i + 1)
				}
				i++
				return elemDec(s, v.Index(i-1))
			})
			if err != nil {
				return err
			}
			if i < v.Len() {
				v.SetLen(i)
			}
			if i == 0 {
				v.Set(reflect.MakeSlice(t, 0, 0))
			}
			return nil
		}
		render = func(w *jsonWriter, v reflect.Value, depth int) {
			switch {
			case v.IsNil():
				w.buf = append(w.buf, "null"...)
				return
			case v.Len() == 0:
				w.buf = append(w.buf, "[]"...)
				return
			}
			w.buf = append(w.buf, '[')
			for i := range v.Len() {
				if i > 0 {
					w.buf = append(w.buf, ',')
				}
				w.buf = appendNewline(w.buf, depth+1)
				elemRender(w, v.Index(i), depth+1)
			}
			w.buf = append(appendNewline(w.buf, depth), ']')
		}
	case reflect.Struct:
		fields := structFields(t, building)
		names := make([]string, len(fields))
		for i, f := range fields {
			names[i] = f.name
		}
		dec = func(s *jsonScanner, v reflect.Value) error {
			switch s.ws() {
			case 'n':
				return s.literal("null")
			case '{':
			default:
				return s.typeError(t)
			}
			return s.object(names, func(i int, k jsonKey) error {
				if i < 0 {
					return k.unknown()
				}
				return fields[i].dec(s, v.Field(fields[i].index))
			})
		}
		render = func(w *jsonWriter, v reflect.Value, depth int) {
			w.buf = append(w.buf, '{')
			n := 0
			for _, f := range fields {
				fv := v.Field(f.index)
				if f.omitEmpty && isEmptyValue(fv) {
					continue
				}
				if n > 0 {
					w.buf = append(w.buf, ',')
				}
				n++
				w.buf = append(appendNewline(w.buf, depth+1), f.key...)
				f.render(w, fv, depth+1)
			}
			if n > 0 {
				w.buf = appendNewline(w.buf, depth)
			}
			w.buf = append(w.buf, '}')
		}
	default:
		panic(fmt.Sprintf("shard: payload type %v: kind %v has no v1 codec", t, t.Kind()))
	}
	return dec, render
}

// jsonField is one struct field: the JSON key that decodes into it, and
// the key and value it renders as.
type jsonField struct {
	name      string
	key       string // the rendered key: the quoted name, a colon and a space
	index     int
	omitEmpty bool
	dec       jsonDecoder
	render    jsonRenderer
}

// isEmptyValue is encoding/json's omitempty test, over the kinds a field
// table holds: a struct is never empty, and -0 is as empty as 0.
func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Float64:
		return v.Float() == 0
	case reflect.String, reflect.Slice:
		return v.Len() == 0
	case reflect.Pointer:
		return v.IsNil()
	}
	return false
}

// structFields returns t's field table: its exported fields under their
// JSON names, in declaration order, as encoding/json orders them.
func structFields(t reflect.Type, building map[reflect.Type]bool) []jsonField {
	var fields []jsonField
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			panic(fmt.Sprintf("shard: payload type %v embeds %v", t, sf.Type))
		}
		tag := sf.Tag.Get("json")
		if !sf.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		omitEmpty := false
		for _, o := range strings.Split(opts, ",") {
			switch o {
			case "":
			case "omitempty":
				omitEmpty = true
			default:
				panic(fmt.Sprintf("shard: payload field %v.%s: the %q option has no v1 codec", t, sf.Name, ","+o))
			}
		}
		if name == "" {
			name = sf.Name
		}
		for _, c := range []byte(name) {
			if !(c == '_' || isDigit(c) || 'a' <= lowerASCII(c) && lowerASCII(c) <= 'z') {
				panic(fmt.Sprintf("shard: payload field %v.%s: JSON name %q is not a plain ASCII identifier", t, sf.Name, name))
			}
		}
		for _, f := range fields {
			if strings.EqualFold(f.name, name) {
				panic(fmt.Sprintf("shard: payload type %v: fields %q and %q match the same keys", t, f.name, name))
			}
		}
		dec, render := newJSONType(sf.Type, building)
		fields = append(fields, jsonField{name: name, key: `"` + name + `": `, index: i, omitEmpty: omitEmpty, dec: dec, render: render})
	}
	return fields
}

// typeError reports a JSON value of the wrong kind for t.
func (s *jsonScanner) typeError(t reflect.Type) error {
	kind := "number"
	switch s.ws() {
	case '"':
		kind = "string"
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case 't', 'f':
		kind = "bool"
	}
	return s.errorf("json: cannot unmarshal %s into %v", kind, t)
}
