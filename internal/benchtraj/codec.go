package benchtraj

// The shard-codec benchmarks and the bytes-per-cell measurement behind
// the trajectory's codec_bytes_per_cell_* fields. Both run over one
// synthetic paper-scale-shaped shard file — the fig5 and figq grids at
// the paper's 1000 systems per point, with payloads shaped exactly like
// the real experiments' (the structs below mirror the experiment
// package's payload types tag for tag, so decoding the file types them
// with the registered codecs). Sizes are deterministic functions of the code, identical
// on every machine, so Compare holds the v2/v1 ratio as a hard cap.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/shard"
)

// codecFig5Payload mirrors the fig5 experiment's cell payload
// (experiment.fig5Outcome is unexported); identical JSON tags in
// identical order make the file decode into it.
type codecFig5Payload struct {
	Offline bool `json:"offline"`
	Online  bool `json:"online"`
	GPIOCP  bool `json:"gpiocp"`
	Static  bool `json:"static"`
	GA      bool `json:"ga"`
}

// codecQPayload mirrors experiment.qOutcome.
type codecQPayload struct {
	Psi float64 `json:"psi"`
	Ups float64 `json:"upsilon"`
	OK  bool    `json:"ok"`
}

// codecFigqPayload mirrors experiment.figqOutcome.
type codecFigqPayload struct {
	Offline codecQPayload `json:"offline"`
	CP      codecQPayload `json:"gpiocp"`
	Static  codecQPayload `json:"static"`
	GA      codecQPayload `json:"ga"`
}

// codecBenchFile builds the synthetic paper-scale shard file: the fig5
// grid (15 utilisation points × 1000 systems) and the fig6 grid (5 ×
// 1000, the figq cell payload) with pseudo-random payloads under the
// real experiments' names and payload versions. The file is built as
// JSON and round-tripped through shard.Decode, which types every payload
// with the registered codec (the experiment's payload types are
// unexported) — so its cells are exactly what a real -paperscale run
// holds in memory, and EncodeBinary packs them the same way.
func codecBenchFile() (*shard.File, error) {
	if err := codecRegistered(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	f := &shard.File{
		Version:   shard.FormatVersion,
		Selection: "all",
		Shards:    1,
		Index:     0,
		Params:    json.RawMessage(`{"paperscale":true,"seed":1}`),
	}

	fig5 := shard.Run{Experiment: "fig5", Grid: shard.Grid{Points: 15, Systems: 1000}, PayloadVersion: 1}
	for p := 0; p < fig5.Grid.Points; p++ {
		// Schedulability falls with utilisation, like the real figure.
		prob := 1 - float64(p)/float64(fig5.Grid.Points)
		for s := 0; s < fig5.Grid.Systems; s++ {
			ok := rng.Float64() < prob
			data := codecFig5Payload{
				Offline: ok, Online: ok && rng.Intn(4) > 0, GPIOCP: ok,
				Static: ok && rng.Intn(8) > 0, GA: ok || rng.Intn(16) == 0,
			}
			fig5.Cells = append(fig5.Cells, shard.Cell{Point: p, System: s, Seed: rng.Int63(), Data: data})
		}
	}
	f.Runs = append(f.Runs, fig5)

	q := func() codecQPayload {
		return codecQPayload{Psi: rng.Float64(), Ups: rng.Float64(), OK: rng.Intn(4) > 0}
	}
	figq := shard.Run{Experiment: "fig6", Grid: shard.Grid{Points: 5, Systems: 1000}, PayloadVersion: 1}
	for p := 0; p < figq.Grid.Points; p++ {
		for s := 0; s < figq.Grid.Systems; s++ {
			data := codecFigqPayload{Offline: q(), CP: q(), Static: q(), GA: q()}
			figq.Cells = append(figq.Cells, shard.Cell{Point: p, System: s, Seed: rng.Int63(), Data: data})
		}
	}
	f.Runs = append(f.Runs, figq)
	v1, err := f.Encode()
	if err != nil {
		return nil, err
	}
	return shard.Decode(v1)
}

// codecRegistered reports whether the experiment payload codecs the
// bench file relies on are registered (they live in internal/experiment
// init; any caller that imports the experiment package has them).
func codecRegistered() error {
	for _, key := range []struct {
		name    string
		version int
	}{{"fig5", 1}, {"fig6", 1}} {
		if _, ok := shard.LookupPayloadCodec(key.name, key.version); !ok {
			return fmt.Errorf("benchtraj: payload codec for %q v%d not registered (import repro/internal/experiment)", key.name, key.version)
		}
	}
	return nil
}

// CodecEncodeBinary measures encoding the paper-scale file into the v2
// binary container (native columnar payload packing included). Its
// header goes through json.Marshal, so it runs pinned, as
// CodecEncodeJSON does.
func CodecEncodeBinary(b *testing.B) {
	f, err := codecBenchFile()
	if err != nil {
		b.Fatal(err)
	}
	pinned(b, func() error {
		_, err := f.EncodeBinary()
		return err
	})
}

// CodecDecodeBinary measures decoding the v2 binary container back into
// cells (typed payload column unpacking included).
func CodecDecodeBinary(b *testing.B) {
	f, err := codecBenchFile()
	if err != nil {
		b.Fatal(err)
	}
	bin, err := f.EncodeBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shard.Decode(bin); err != nil {
			b.Fatal(err)
		}
	}
}

// CodecEncodeJSON measures encoding the paper-scale file into the v1
// JSON container, the CLI's default -codec.
func CodecEncodeJSON(b *testing.B) {
	f, err := codecBenchFile()
	if err != nil {
		b.Fatal(err)
	}
	pinned(b, func() error {
		_, err := f.Encode()
		return err
	})
}

// pinned runs an encode body that goes through json.Marshal. That keeps
// its encoder in a sync.Pool, held per processor and emptied by every
// collection, so how many allocations an encode makes depends on where
// the goroutine ran and when the collector last ran. The body therefore
// runs on one processor and collects between iterations, outside the
// timer, never during one: allocs/op, the gated half, is the same on
// every run, and ns/op leaves out collection.
func pinned(b *testing.B, encode func() error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() {
		if err := encode(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
	}
	run() // warms the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// CodecDecodeJSON measures decoding the v1 JSON container back into
// typed cells.
func CodecDecodeJSON(b *testing.B) {
	f, err := codecBenchFile()
	if err != nil {
		b.Fatal(err)
	}
	v1, err := f.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shard.Decode(v1); err != nil {
			b.Fatal(err)
		}
	}
}

// CodecSizes is the bytes-per-cell measurement of the two encodings
// over the synthetic paper-scale file.
type CodecSizes struct {
	// Cells is the file's total cell count.
	Cells int
	// V1BytesPerCell and V2BytesPerCell are total encoded file size
	// divided by cell count for the v1 JSON and v2 binary containers.
	V1BytesPerCell float64
	V2BytesPerCell float64
}

// Ratio returns v2 over v1 bytes per cell (smaller is better).
func (s CodecSizes) Ratio() float64 {
	if s.V1BytesPerCell == 0 {
		return 0
	}
	return s.V2BytesPerCell / s.V1BytesPerCell
}

// MeasureCodecSizes encodes the synthetic paper-scale file both ways
// and returns the bytes-per-cell of each container — after verifying
// the two encodings decode to byte-identical v1 renders, so the size
// claim is never measured off a lossy encode.
func MeasureCodecSizes() (CodecSizes, error) {
	f, err := codecBenchFile()
	if err != nil {
		return CodecSizes{}, err
	}
	v1, err := f.Encode()
	if err != nil {
		return CodecSizes{}, err
	}
	v2, err := f.EncodeBinary()
	if err != nil {
		return CodecSizes{}, err
	}
	decoded, err := shard.Decode(v2)
	if err != nil {
		return CodecSizes{}, err
	}
	rendered, err := decoded.Encode()
	if err != nil {
		return CodecSizes{}, err
	}
	if string(rendered) != string(v1) {
		return CodecSizes{}, fmt.Errorf("benchtraj: binary round trip does not reproduce the v1 render")
	}
	cells := f.CellCount()
	if cells == 0 {
		return CodecSizes{}, fmt.Errorf("benchtraj: empty bench file")
	}
	return CodecSizes{
		Cells:          cells,
		V1BytesPerCell: float64(len(v1)) / float64(cells),
		V2BytesPerCell: float64(len(v2)) / float64(cells),
	}, nil
}
