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

var (
	jsonUnmarshalerType = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// newJSONDecoder builds t's decoder: the field table of a struct, and
// the element decoder of a pointer or slice, built once. It supports
// bool, the signed int kinds, float64, string, and structs, pointers and
// slices of those; it panics on any other kind, on a type with its own
// JSON or text unmarshaler, on a recursive type, and on struct fields
// encoding/json would treat specially (embedded fields, the ",string"
// option, names that are not plain ASCII identifiers, or two names that
// match the same key).
func newJSONDecoder(t reflect.Type, building map[reflect.Type]bool) jsonDecoder {
	if building[t] {
		panic(fmt.Sprintf("shard: payload type %v is recursive", t))
	}
	if reflect.PointerTo(t).Implements(jsonUnmarshalerType) || reflect.PointerTo(t).Implements(textUnmarshalerType) {
		panic(fmt.Sprintf("shard: payload type %v has its own unmarshaler", t))
	}
	building[t] = true
	defer delete(building, t)
	switch t.Kind() {
	case reflect.Bool:
		return func(s *jsonScanner, v reflect.Value) error {
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
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(s *jsonScanner, v reflect.Value) error {
			n, ok, err := s.integer()
			if ok {
				if v.OverflowInt(n) {
					return fmt.Errorf("json: number %d overflows %v", n, t)
				}
				v.SetInt(n)
			}
			return err
		}
	case reflect.Float64:
		return func(s *jsonScanner, v reflect.Value) error {
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
	case reflect.String:
		return func(s *jsonScanner, v reflect.Value) error {
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
	case reflect.Pointer:
		elem := newJSONDecoder(t.Elem(), building)
		return func(s *jsonScanner, v reflect.Value) error {
			if s.ws() == 'n' {
				v.SetZero()
				return s.literal("null")
			}
			if v.IsNil() {
				v.Set(reflect.New(t.Elem()))
			}
			return elem(s, v.Elem())
		}
	case reflect.Slice:
		elem := newJSONDecoder(t.Elem(), building)
		return func(s *jsonScanner, v reflect.Value) error {
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
				return elem(s, v.Index(i-1))
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
	case reflect.Struct:
		fields := structFields(t, building)
		names := make([]string, len(fields))
		for i, f := range fields {
			names[i] = f.name
		}
		return func(s *jsonScanner, v reflect.Value) error {
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
	}
	panic(fmt.Sprintf("shard: payload type %v: kind %v has no v1 decoder", t, t.Kind()))
}

// jsonField is one struct field a JSON key decodes into.
type jsonField struct {
	name  string
	index int
	dec   jsonDecoder
}

// structFields returns t's field table: its exported fields under their
// JSON names, in declaration order.
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
		for _, o := range strings.Split(opts, ",") {
			if o == "string" {
				panic(fmt.Sprintf("shard: payload field %v.%s: the \",string\" option has no v1 decoder", t, sf.Name))
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
		fields = append(fields, jsonField{name: name, index: i, dec: newJSONDecoder(sf.Type, building)})
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
