package dispatch

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/shard"
)

// FuzzParseJournal throws arbitrary bytes at the journal parser: it must
// never panic, and any state it accepts must be internally coherent —
// the tolerant-reader contract (skip bad lines, skip unknown events,
// reject planless or too-new journals) that both resume and the status
// subcommand depend on. Its allocation stays below a fixed multiple of
// the input's length plus a constant. One plan line legitimately
// declares up to shard.MaxCells units, and the reader holds a state for
// each, so the constant covers MaxCells states (twice, for the slice's
// growth); a count beyond that cap is rejected, never allocated.
func FuzzParseJournal(f *testing.F) {
	f.Add([]byte(`{"event":"plan","v":1,"selection":"all","shards":3,"params":{"Systems":4}}` + "\n" +
		`{"event":"attempt","shard":0,"attempt":1,"worker":"w0"}` + "\n" +
		`{"event":"done","shard":0,"attempt":1,"worker":"w0","file":"shard0.json","cells":12}` + "\n" +
		`{"event":"merged","shards":3,"cells":36}` + "\n"))
	f.Add([]byte(`{"event":"plan","v":1,"selection":"fig5","shards":2,"balance":"cost"}` + "\n" +
		`{"event":"batch","shard":0,"kind":"cost","spec":"fig5=0-4","cells":5,"weight":2.5}` + "\n" +
		`{"event":"fail","shard":0,"attempt":1,"worker":"w1","error":"boom"}` + "\n"))
	f.Add([]byte(`{"event":"plan","v":99}` + "\n"))
	f.Add([]byte(`not json at all` + "\n" + `{"event":"plan","v":1,"shards":1}` + "\n"))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := parseJournal("fuzz.journal", data)
		runtime.ReadMemStats(&after)
		states := 2 * shard.MaxCells * uint64(unsafe.Sizeof(JournalShard{}))
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+states+64<<10 {
			t.Fatalf("parsing %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		if st.Version < 1 || st.Version > JournalVersion {
			t.Fatalf("accepted journal version %d outside [1,%d]", st.Version, JournalVersion)
		}
		done := st.DoneCount()
		if done > len(st.ShardStates) {
			t.Fatalf("DoneCount %d exceeds %d shard states", done, len(st.ShardStates))
		}
		for i, sh := range st.ShardStates {
			if sh.Index != i {
				t.Fatalf("shard state %d carries index %d", i, sh.Index)
			}
		}
		for _, idx := range st.Missing() {
			if idx < 0 || idx >= len(st.ShardStates) {
				t.Fatalf("Missing() returned out-of-range index %d", idx)
			}
			if st.ShardStates[idx].State == ShardDone {
				t.Fatalf("Missing() returned done shard %d", idx)
			}
		}
	})
}
