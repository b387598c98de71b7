package cellcache

// The cell envelope: a magic, the derived seed as a zigzag varint, the
// cell's packed payload record, and the raw 32-byte SHA-256 of the seed
// and record bytes. The record is opaque here — the experiment layer
// packs and unpacks it with the run's payload codec (the v2 shard
// record), so cellcache stays independent of internal/shard.
//
// Entries written by older builds came in two retired forms: a JSON
// document and a binary envelope under the magic "\x89IOSC1\r\n" whose
// body was compact JSON. Neither opens with the current magic, so
// neither can ever be unpacked as a packed record: both read as misses,
// and the next Put rewrites the entry in the current form.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
)

// envelopeMagic opens every cell envelope. Same construction as the
// shard container's magic (high bit set so no JSON or UTF-8 text can
// collide, CRLF as a transfer-corruption canary) with a distinct name
// so the two formats can never be mistaken for each other; the "2"
// retires the JSON-payload envelope "\x89IOSC1\r\n".
var envelopeMagic = [8]byte{0x89, 'I', 'O', 'S', 'C', '2', '\r', '\n'}

const sumSize = sha256.Size

// encodeEnvelope renders one cell entry.
func encodeEnvelope(seed int64, record []byte) []byte {
	out := make([]byte, 0, len(envelopeMagic)+binary.MaxVarintLen64+len(record)+sumSize)
	out = append(out, envelopeMagic[:]...)
	out = binary.AppendVarint(out, seed)
	out = append(out, record...)
	sum := sha256.Sum256(out[len(envelopeMagic):])
	return append(out, sum[:]...)
}

// decodeEnvelope parses one cell entry. Any defect — wrong or retired
// magic, truncation, a digest mismatch — reports ok=false, which the
// caller treats as a miss. The record aliases raw.
func decodeEnvelope(raw []byte) (seed int64, record []byte, ok bool) {
	if len(raw) < len(envelopeMagic)+1+sumSize || !bytes.Equal(raw[:len(envelopeMagic)], envelopeMagic[:]) {
		return 0, nil, false
	}
	body, sum := raw[len(envelopeMagic):len(raw)-sumSize], raw[len(raw)-sumSize:]
	if want := sha256.Sum256(body); !bytes.Equal(sum, want[:]) {
		return 0, nil, false
	}
	seed, n := binary.Varint(body)
	if n <= 0 {
		return 0, nil, false
	}
	return seed, body[n:], true
}
