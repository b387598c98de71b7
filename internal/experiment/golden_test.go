package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestAllFileGolden pins the v1 JSON file of the whole reproducible sweep
// (`ioschedbench -systems 3 -gapop 8 -gagens 6 -out f`, seed 1) byte for
// byte, so a solver or aggregation change that moves any cell fails here
// rather than only in the end-to-end benchmark's digests.
func TestAllFileGolden(t *testing.T) {
	const want = "0423c0bd476d3cf82903be716c692ee5a30a845b997262499c1b5d00ba446978"
	p := ShardParams{Systems: 3, Seed: 1, GAPopulation: 8, GAGenerations: 6}
	f, err := RunShard(ExpAll, p, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("all-file digest %s, want %s", got, want)
	}
}
