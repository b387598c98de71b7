package coord

import (
	"encoding/json"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/shard"
)

// FuzzDecodeWire drives every wire-message decoder over the same input:
// none may panic, and any message a decoder accepts must survive an
// encode/decode round trip (the coordinator re-emits what it accepted).
// The six decodes together allocate no more than a fixed multiple of the
// input's length plus a constant; the constant covers one lease's cell
// spec expanding to shard.MaxCells indices.
func FuzzDecodeWire(f *testing.F) {
	f.Add([]byte(`{"name":"worker-1"}`))
	f.Add([]byte(`{"worker_id":"w-0001"}`))
	f.Add([]byte(`{"worker_id":"w-0001","wait_ms":1500}`))
	f.Add([]byte(`{"selection":"fig5","params":{"Systems":4,"Seed":1},"shards":3,"balance":"cost"}`))
	f.Add([]byte(`{"run_id":"run-0001","unit":2,"attempt":1,"selection":"all","shards":3,"index":2}`))
	f.Add([]byte(`{"run_id":"run-0002","unit":0,"attempt":2,"selection":"tailq","shards":2,"index":0,"cells":"tailq=0-4,9"}`))
	f.Add([]byte(`{"worker_id":"w-0002","attempt":3,"error":"compute exploded"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		DecodeRegister(data)
		DecodeHeartbeat(data)
		DecodeLeaseRequest(data)
		DecodeSubmit(data)
		DecodeLease(data)
		DecodeFail(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 6*(64*uint64(len(data))+64<<10)+shard.MaxCells*strconv.IntSize/8 {
			t.Fatalf("six decodes of %d bytes allocated %d", len(data), alloc)
		}
		if m, err := DecodeRegister(data); err == nil {
			roundTrip(t, m, func(b []byte) error { _, err := DecodeRegister(b); return err })
		}
		if m, err := DecodeHeartbeat(data); err == nil {
			roundTrip(t, m, func(b []byte) error { _, err := DecodeHeartbeat(b); return err })
		}
		if m, err := DecodeLeaseRequest(data); err == nil {
			roundTrip(t, m, func(b []byte) error { _, err := DecodeLeaseRequest(b); return err })
		}
		if m, err := DecodeSubmit(data); err == nil {
			roundTrip(t, m, func(b []byte) error { _, err := DecodeSubmit(b); return err })
		}
		if m, err := DecodeLease(data); err == nil {
			if err := m.Validate(); err != nil {
				t.Fatalf("DecodeLease accepted an invalid lease: %v", err)
			}
			roundTrip(t, m, func(b []byte) error { _, err := DecodeLease(b); return err })
		}
		if m, err := DecodeFail(data); err == nil {
			roundTrip(t, m, func(b []byte) error { _, err := DecodeFail(b); return err })
		}
	})
}

func roundTrip(t *testing.T, m any, decode func([]byte) error) {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("re-encode accepted message: %v", err)
	}
	if err := decode(data); err != nil {
		t.Fatalf("decoder rejects its own accepted message %s: %v", data, err)
	}
}
