package cellcache

// The pack: one immutable file holding the cells one Put deposited under
// a key, as an index followed by the records it locates, guarded by a
// magic and a SHA-256 digest:
//
//	magic   [8]byte{0x89, 'I', 'O', 'S', 'P', '1', '\r', '\n'}
//	count   uvarint
//	size    uvarint: the index's length in bytes
//	index   count × (point uvarint, system uvarint, seed [8]byte little-endian, len uvarint)
//	records the count records, back to back in index order
//	sum     [32]byte SHA-256 of every byte between magic and sum
//
// The index is strictly ascending by (point, system), so a pack holds a
// cell at most once and a lookup is a binary search. The index size lets
// a reader locate each record as it reads the index, in one pass. Every
// varint is in its shortest form and the index and record lengths cover
// their bytes exactly, so a pack has one encoding: the decoder accepts
// only the bytes encodePack writes. The records are opaque here — the experiment
// layer packs and unpacks them with the run's payload codec (the v2
// shard record), so cellcache stays independent of internal/shard.
//
// Entries written by older builds came in three retired per-cell forms: a
// JSON document, a binary envelope under the magic "\x89IOSC1\r\n" whose
// body was compact JSON, and one under "\x89IOSC2\r\n" holding a single
// packed record. None is named like a pack or opens with the pack magic,
// so all three read as misses.

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
)

// packMagic opens every pack. Same construction as the shard container's
// magic (high bit set so no JSON or UTF-8 text can collide, CRLF as a
// transfer-corruption canary) with a distinct name, so packs, shard files
// and the retired per-cell envelopes can never be mistaken for each
// other.
var packMagic = [8]byte{0x89, 'I', 'O', 'S', 'P', '1', '\r', '\n'}

const sumSize = sha256.Size

// minIndexEntry is the fewest bytes one index entry can take: three
// one-byte varints and the seed. It bounds the count a decoder will
// allocate for.
const minIndexEntry = 3 + 8

// Entry is one cell of a pack: its grid path, its derived seed and its
// packed payload record.
type Entry struct {
	Point, System int
	Seed          int64
	Record        []byte
}

func compareEntries(a, b Entry) int {
	return cmp.Or(cmp.Compare(a.Point, b.Point), cmp.Compare(a.System, b.System))
}

// canonical returns entries sorted by (point, system) with one entry per
// cell — the last one given, so a caller appending newer cells after
// older ones keeps the newer. entries itself is not modified.
func canonical(entries []Entry) []Entry {
	out := slices.Clone(entries)
	slices.SortStableFunc(out, compareEntries)
	n := 0
	for i, e := range out {
		if i+1 < len(out) && compareEntries(e, out[i+1]) == 0 {
			continue
		}
		out[n] = e
		n++
	}
	return out[:n]
}

// encodePack renders canonical entries (see canonical) as one pack.
func encodePack(entries []Entry) []byte {
	var index []byte
	records := 0
	for _, e := range entries {
		index = binary.AppendUvarint(index, uint64(e.Point))
		index = binary.AppendUvarint(index, uint64(e.System))
		index = binary.LittleEndian.AppendUint64(index, uint64(e.Seed))
		index = binary.AppendUvarint(index, uint64(len(e.Record)))
		records += len(e.Record)
	}
	out := make([]byte, 0, len(packMagic)+2*binary.MaxVarintLen64+len(index)+records+sumSize)
	out = append(out, packMagic[:]...)
	out = binary.AppendUvarint(out, uint64(len(entries)))
	out = binary.AppendUvarint(out, uint64(len(index)))
	out = append(out, index...)
	for _, e := range entries {
		out = append(out, e.Record...)
	}
	sum := sha256.Sum256(out[len(packMagic):])
	return append(out, sum[:]...)
}

// decodePack parses one pack. Any defect — wrong or retired magic,
// truncation, a digest mismatch, an index out of order or not covering
// the records exactly — reports ok=false, which the caller treats as a
// miss for every cell the pack would have held. The records alias raw.
func decodePack(raw []byte) (entries []Entry, ok bool) {
	if len(raw) < len(packMagic)+2+sumSize || !bytes.Equal(raw[:len(packMagic)], packMagic[:]) {
		return nil, false
	}
	body, sum := raw[len(packMagic):len(raw)-sumSize], raw[len(raw)-sumSize:]
	if want := sha256.Sum256(body); !bytes.Equal(sum, want[:]) {
		return nil, false
	}
	count, ok1 := take(&body)
	size, ok2 := take(&body)
	if !ok1 || !ok2 || size > uint64(len(body)) || count > size/minIndexEntry {
		return nil, false
	}
	index, records := body[:size], body[size:]
	entries = make([]Entry, 0, count)
	for range count {
		point, ok1 := take(&index)
		system, ok2 := take(&index)
		if !ok1 || !ok2 || len(index) < 8 || point > math.MaxInt32 || system > math.MaxInt32 {
			return nil, false
		}
		e := Entry{Point: int(point), System: int(system), Seed: int64(binary.LittleEndian.Uint64(index))}
		index = index[8:]
		n, ok := take(&index)
		if !ok || n > uint64(len(records)) {
			return nil, false
		}
		if len(entries) > 0 && compareEntries(entries[len(entries)-1], e) >= 0 {
			return nil, false
		}
		e.Record, records = records[:n:n], records[n:]
		entries = append(entries, e)
	}
	if len(index) != 0 || len(records) != 0 {
		return nil, false
	}
	return entries, true
}

// take reads one uvarint off the front of *b.
func take(b *[]byte) (uint64, bool) {
	v, n := uvarint(*b)
	if n <= 0 {
		return 0, false
	}
	*b = (*b)[n:]
	return v, true
}

// uvarint is binary.Uvarint restricted to shortest-form encodings, so
// every accepted value has exactly one spelling.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1
	}
	return v, n
}
