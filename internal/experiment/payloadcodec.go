package experiment

// The built-in experiments' columnar payload codecs for the v2 binary
// shard container (internal/shard/codec.go). Each one packs the
// experiment's typed payload into fixed binary primitives — bool
// bitmasks, raw float bits, varints — instead of per-cell JSON: a fig5
// verdict shrinks from ~70 JSON bytes to one byte, a quality outcome
// from ~40 to 17.
//
// A codec is an exact inverse pair over the payload struct the
// experiment's cells carry (floats travel as raw IEEE bits, nil-ness as
// an explicit flag), so the v1 JSON render of an unpacked value is
// byte-identical to the render of the value that was packed.
//
// Each experiment builds its Codec once, as a package-level value:
// NewCodec builds the payload type's v1 JSON field table.

import (
	"fmt"

	"repro/internal/shard"
	"repro/internal/timing"
	"repro/internal/trace"
)

// ---- shared qOutcome primitives ----

// qOutcomeSize is a qOutcome's packed size: two raw float64s and a bool
// byte. Count caps for variable-length payloads divide by it.
const qOutcomeSize = 17

func packQOutcome(w *shard.ColumnWriter, q *qOutcome) {
	w.Float64(q.Psi)
	w.Float64(q.Ups)
	w.Bool(q.OK)
}

func unpackQOutcome(r *shard.ColumnReader, q *qOutcome) (err error) {
	if q.Psi, err = r.Float64(); err != nil {
		return err
	}
	if q.Ups, err = r.Float64(); err != nil {
		return err
	}
	q.OK, err = r.Bool()
	return err
}

// ---- per-experiment codecs ----

// fig5PayloadCodec packs the five method verdicts into one bitmask byte.
func fig5PayloadCodec() PayloadCodec {
	return shard.NewCodec(
		func(w *shard.ColumnWriter, v *fig5Outcome) {
			var b byte
			for i, ok := range [...]bool{v.Offline, v.Online, v.GPIOCP, v.Static, v.GA} {
				if ok {
					b |= 1 << i
				}
			}
			w.Byte(b)
		},
		func(r *shard.ColumnReader, v *fig5Outcome) error {
			b, err := r.Byte()
			if err != nil {
				return err
			}
			if b > 0x1f {
				return fmt.Errorf("experiment: fig5 verdict bits %#x out of range", b)
			}
			v.Offline, v.Online, v.GPIOCP, v.Static, v.GA =
				b&1 != 0, b&2 != 0, b&4 != 0, b&8 != 0, b&16 != 0
			return nil
		},
	)
}

// figqPayloadCodec packs the four per-method quality outcomes.
func figqPayloadCodec() PayloadCodec {
	return shard.NewCodec(
		func(w *shard.ColumnWriter, v *figqOutcome) {
			packQOutcome(w, &v.Offline)
			packQOutcome(w, &v.CP)
			packQOutcome(w, &v.Static)
			packQOutcome(w, &v.GA)
		},
		func(r *shard.ColumnReader, v *figqOutcome) error {
			for _, q := range [...]*qOutcome{&v.Offline, &v.CP, &v.Static, &v.GA} {
				if err := unpackQOutcome(r, q); err != nil {
					return err
				}
			}
			return nil
		},
	)
}

// qPayloadCodec packs a single quality outcome (the multidevice cell).
func qPayloadCodec() PayloadCodec {
	return shard.NewCodec(packQOutcome, unpackQOutcome)
}

// qSlicePayloadCodec packs a variant slice of quality outcomes (the
// ablation cell). nil and empty slices are distinct JSON ("null" vs
// "[]"), so nil-ness travels as an explicit flag.
func qSlicePayloadCodec() PayloadCodec {
	return shard.NewCodec(
		func(w *shard.ColumnWriter, v *[]qOutcome) {
			w.Bool(*v == nil)
			w.Uvarint(uint64(len(*v)))
			for i := range *v {
				packQOutcome(w, &(*v)[i])
			}
		},
		func(r *shard.ColumnReader, v *[]qOutcome) error {
			isNil, err := r.Bool()
			if err != nil {
				return err
			}
			n, err := r.Int()
			if err != nil {
				return err
			}
			if isNil {
				if n != 0 {
					return fmt.Errorf("experiment: nil variant slice declares %d outcomes", n)
				}
				*v = nil
				return nil
			}
			if n > r.Remaining()/qOutcomeSize {
				return fmt.Errorf("experiment: %d variant outcomes declared, %d bytes remain", n, r.Remaining())
			}
			out := make([]qOutcome, n)
			for i := range out {
				if err := unpackQOutcome(r, &out[i]); err != nil {
					return err
				}
			}
			*v = out
			return nil
		},
	)
}

// tailqPayloadCodec packs the per-job quality census.
func tailqPayloadCodec() PayloadCodec {
	return shard.NewCodec(
		func(w *shard.ColumnWriter, v *tailqOutcome) {
			w.Bool(v.OK)
			w.Varint(int64(v.Jobs))
			w.Varint(int64(v.Exact))
			w.Varint(int64(v.Ge90))
			w.Varint(int64(v.Ge50))
			w.Float64(v.SumUps)
			w.Float64(v.MinUps)
		},
		func(r *shard.ColumnReader, v *tailqOutcome) error {
			ok, err := r.Bool()
			if err != nil {
				return err
			}
			v.OK = ok
			for _, p := range [...]*int{&v.Jobs, &v.Exact, &v.Ge90, &v.Ge50} {
				n, err := r.Varint()
				if err != nil {
					return err
				}
				*p = int(n)
			}
			if v.SumUps, err = r.Float64(); err != nil {
				return err
			}
			v.MinUps, err = r.Float64()
			return err
		},
	)
}

// jitterPayloadCodec packs the replay jitter census: a bool byte,
// varint counts and percentiles, the raw-bits mean, and the histogram
// as a nil-flagged varint sequence (nil and empty are distinct JSON).
func jitterPayloadCodec() PayloadCodec {
	return shard.NewCodec(
		func(w *shard.ColumnWriter, v *jitterOutcome) {
			w.Bool(v.OK)
			w.Varint(int64(v.Dispatched))
			w.Varint(int64(v.Skipped))
			w.Varint(int64(v.Exact))
			w.Varint(int64(v.Missed))
			w.Varint(int64(v.Devices))
			w.Varint(int64(v.Pinned))
			w.Float64(v.MeanNs)
			w.Varint(v.P50Ns)
			w.Varint(v.P95Ns)
			w.Varint(v.P99Ns)
			w.Varint(v.MaxNs)
			w.Bool(v.Hist == nil)
			w.Uvarint(uint64(len(v.Hist)))
			for _, n := range v.Hist {
				w.Varint(n)
			}
		},
		func(r *shard.ColumnReader, v *jitterOutcome) error {
			ok, err := r.Bool()
			if err != nil {
				return err
			}
			v.OK = ok
			for _, p := range [...]*int{&v.Dispatched, &v.Skipped, &v.Exact, &v.Missed, &v.Devices, &v.Pinned} {
				n, err := r.Varint()
				if err != nil {
					return err
				}
				*p = int(n)
			}
			if v.MeanNs, err = r.Float64(); err != nil {
				return err
			}
			for _, p := range [...]*int64{&v.P50Ns, &v.P95Ns, &v.P99Ns, &v.MaxNs} {
				if *p, err = r.Varint(); err != nil {
					return err
				}
			}
			isNil, err := r.Bool()
			if err != nil {
				return err
			}
			n, err := r.Int()
			if err != nil {
				return err
			}
			if isNil {
				if n != 0 {
					return fmt.Errorf("experiment: nil jitter histogram declares %d buckets", n)
				}
				v.Hist = nil
				return nil
			}
			// Each histogram varint is at least one byte.
			if n > r.Remaining() {
				return fmt.Errorf("experiment: %d histogram buckets declared, %d bytes remain", n, r.Remaining())
			}
			v.Hist = make([]int64, n)
			for i := range v.Hist {
				if v.Hist[i], err = r.Varint(); err != nil {
					return err
				}
			}
			return nil
		},
	)
}

// motivationPayloadCodec packs the simulated accuracy report: nil-ness
// flags for the report pointer and its event slice, per-event label and
// cycle varints, and the summary statistics.
func motivationPayloadCodec() PayloadCodec {
	// An event is at minimum a zero-length label prefix and two one-byte
	// varints; the count cap divides by it.
	const minEventSize = 3
	return shard.NewCodec(
		func(w *shard.ColumnWriter, v *motivationOutcome) {
			w.Bool(v.Report == nil)
			if rep := v.Report; rep != nil {
				w.Bool(rep.Events == nil)
				w.Uvarint(uint64(len(rep.Events)))
				for _, e := range rep.Events {
					w.String(e.Label)
					w.Varint(int64(e.Expected))
					w.Varint(int64(e.Observed))
				}
				w.Varint(int64(rep.Exact))
				w.Varint(int64(rep.MaxDeviation))
				w.Float64(rep.MeanDeviation)
			}
			w.Varint(int64(v.BaseLatency))
		},
		func(r *shard.ColumnReader, v *motivationOutcome) error {
			noReport, err := r.Bool()
			if err != nil {
				return err
			}
			if !noReport {
				rep := &trace.Report{}
				noEvents, err := r.Bool()
				if err != nil {
					return err
				}
				n, err := r.Int()
				if err != nil {
					return err
				}
				switch {
				case noEvents && n != 0:
					return fmt.Errorf("experiment: nil event slice declares %d events", n)
				case !noEvents:
					if n > r.Remaining()/minEventSize {
						return fmt.Errorf("experiment: %d events declared, %d bytes remain", n, r.Remaining())
					}
					rep.Events = make([]trace.Event, n)
					for i := range rep.Events {
						e := &rep.Events[i]
						if e.Label, err = r.String(); err != nil {
							return err
						}
						exp, err := r.Varint()
						if err != nil {
							return err
						}
						obs, err := r.Varint()
						if err != nil {
							return err
						}
						e.Expected, e.Observed = timing.Cycle(exp), timing.Cycle(obs)
					}
				}
				exact, err := r.Varint()
				if err != nil {
					return err
				}
				rep.Exact = int(exact)
				maxDev, err := r.Varint()
				if err != nil {
					return err
				}
				rep.MaxDeviation = timing.Cycle(maxDev)
				if rep.MeanDeviation, err = r.Float64(); err != nil {
					return err
				}
				v.Report = rep
			}
			base, err := r.Varint()
			if err != nil {
				return err
			}
			v.BaseLatency = timing.Cycle(base)
			return nil
		},
	)
}
