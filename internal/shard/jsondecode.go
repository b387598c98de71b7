package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// decodeJSON parses a v1 file in one streaming pass: each run's cells
// decode straight into the payload type of the run's codec
// (PayloadCodecFor); every other field goes through json.Unmarshal, so
// the header keeps encoding/json's rules.
func decodeJSON(data []byte) (*File, error) {
	dec := strictDecoder(data)
	f := &File{Encoding: EncodingJSON}
	rest, err := walkObject(dec, func(key string) (bool, error) {
		if !strings.EqualFold(key, "runs") {
			return false, nil
		}
		tok, err := dec.Token()
		if err != nil || tok == nil { // "runs": null
			return true, err
		} else if tok != json.Delim('[') {
			return true, fmt.Errorf("runs: want an array, got %v", tok)
		}
		for f.Runs = []Run{}; err == nil && dec.More(); {
			var r Run
			if r, err = decodeRun(dec, data); err == nil {
				f.Runs = append(f.Runs, r)
			}
		}
		if err == nil {
			_, err = dec.Token()
		}
		return true, err
	})
	if err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the file object")
	}
	return f, json.Unmarshal(rest, f)
}

// walkObject reads one JSON object from dec, offering each key to field,
// which consumes its value or declines it. Declined fields are collected
// verbatim into rest, a JSON object.
func walkObject(dec *json.Decoder, field func(key string) (bool, error)) (rest []byte, err error) {
	if tok, err := dec.Token(); err != nil {
		return nil, err
	} else if tok != json.Delim('{') {
		return nil, fmt.Errorf("want an object, got %v", tok)
	}
	rest = []byte{'{'}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := tok.(string)
		if used, err := field(key); err != nil {
			return nil, err
		} else if used {
			continue
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
		if len(rest) > 1 {
			rest = append(rest, ',')
		}
		k, _ := json.Marshal(key)
		rest = append(append(append(rest, k...), ':'), v...)
	}
	_, err = dec.Token()
	return append(rest, '}'), err
}

// decodeRun reads one run object. Its cells decode with the codec of the
// layout keys read before them, as Encode writes them; cells that come
// first (a hand-edited file) are held as raw JSON until the object ends.
func decodeRun(dec *json.Decoder, data []byte) (Run, error) {
	var r Run
	var raw json.RawMessage
	var direct *payloadKey // the layout cells were decoded under
	rest, err := walkObject(dec, func(key string) (bool, error) {
		switch {
		case strings.EqualFold(key, "experiment"):
			return true, dec.Decode(&r.Experiment)
		case strings.EqualFold(key, "payload_version"):
			return true, dec.Decode(&r.PayloadVersion)
		case !strings.EqualFold(key, "cells"):
			return false, nil
		case r.Experiment == "":
			return true, dec.Decode(&raw)
		}
		c, off := PayloadCodecFor(r.Experiment, r.PayloadVersion), dec.InputOffset()
		cells, err := c.decodeCells(dec)
		if err != nil {
			// Re-read the array from data (after the key's colon) to name
			// the offending cell.
			var arr json.RawMessage
			json.NewDecoder(bytes.NewReader(bytes.TrimLeft(data[off:], " \t\r\n:"))).Decode(&arr)
			err = fmt.Errorf("run %q %w", r.Experiment, badCell(c, arr, err))
		}
		r.Cells, direct = cells, &payloadKey{r.Experiment, r.PayloadVersion}
		return true, err
	})
	if err == nil {
		err = json.Unmarshal(rest, &r) // grid and unknown keys
	}
	switch {
	case err != nil:
	case raw != nil:
		c := PayloadCodecFor(r.Experiment, r.PayloadVersion)
		if r.Cells, err = c.decodeCells(strictDecoder(raw)); err != nil {
			err = fmt.Errorf("run %q %w", r.Experiment, badCell(c, raw, err))
		}
	case direct != nil && *direct != (payloadKey{r.Experiment, r.PayloadVersion}):
		err = fmt.Errorf("run %q: experiment or payload_version follows the cells", r.Experiment)
	}
	return r, err
}

// strictDecoder reads raw rejecting unknown object fields.
func strictDecoder(raw []byte) *json.Decoder {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec
}

// badCell names the first cell of the v1 cell array raw that c cannot
// decode, falling back to err when no single cell is to blame.
func badCell(c PayloadCodec, raw []byte, err error) error {
	var elems []json.RawMessage
	if json.Unmarshal(raw, &elems) != nil {
		return err
	}
	for _, e := range elems {
		if _, cerr := c.decodeCells(strictDecoder(append(append([]byte{'['}, e...), ']'))); cerr != nil {
			var at struct{ Point, System int }
			json.Unmarshal(e, &at)
			return fmt.Errorf("cell (%d,%d) payload: %w", at.Point, at.System, cerr)
		}
	}
	return err
}
