package shard

import (
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

// allocated returns the bytes the heap allocated while fn ran. Every
// decoder fuzz target bounds it by a fixed multiple of the input's
// length plus a constant, so no input can make a decoder allocate for
// data its bytes do not hold.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rangesBound is the allocation bound of the range grammars for an
// input of n bytes. Unlike the containers they legitimately expand
// beyond their input — "0-1048575" names MaxCells cells in 9 bytes —
// so the constant covers one expansion of MaxCells ints; the cap is
// what keeps that constant finite.
func rangesBound(n int) uint64 {
	return 64*uint64(n) + MaxCells*strconv.IntSize/8 + 64<<10
}

// FuzzParseCellSpec checks the cell-spec grammar's round trip: anything
// ParseCellSpec accepts must re-format through FormatCellSpec and parse
// back to the identical names and (strictly ascending) cell sets —
// the property the dispatch journal and the coordinator wire rely on
// when they pass batch specs between processes. Parsing stays within
// rangesBound.
func FuzzParseCellSpec(f *testing.F) {
	f.Add("fig5=0-4,9;fig6=1,3-17")
	f.Add("tailq=")
	f.Add("a=0;b=1-2;c=")
	f.Add("fig5=0-0")
	f.Add("=1")
	f.Add("fig5=9,1")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		var names []string
		var cells [][]int
		var err error
		if alloc := allocated(func() { names, cells, err = ParseCellSpec(spec) }); alloc > rangesBound(len(spec)) {
			t.Fatalf("parsing %d bytes allocated %d", len(spec), alloc)
		}
		if err != nil {
			return
		}
		out, err := FormatCellSpec(names, cells)
		if err != nil {
			t.Fatalf("FormatCellSpec rejects ParseCellSpec(%q)'s output: %v", spec, err)
		}
		names2, cells2, err := ParseCellSpec(out)
		if err != nil {
			t.Fatalf("ParseCellSpec rejects FormatCellSpec's output %q: %v", out, err)
		}
		if !reflect.DeepEqual(names, names2) {
			t.Fatalf("names round trip: %q -> %q: %v != %v", spec, out, names, names2)
		}
		if len(cells) != len(cells2) {
			t.Fatalf("cells round trip: %q -> %q: %d sets != %d", spec, out, len(cells), len(cells2))
		}
		for i := range cells {
			if len(cells[i]) == 0 && len(cells2[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(cells[i], cells2[i]) {
				t.Fatalf("cells round trip: %q -> %q: set %d %v != %v", spec, out, i, cells[i], cells2[i])
			}
		}
	})
}

// FuzzParseRanges checks the range grammar alone: accepted inputs parse
// to strictly ascending sets that round trip through FormatRanges, and
// parsing stays within rangesBound.
func FuzzParseRanges(f *testing.F) {
	f.Add("0-4,7,9-12")
	f.Add("3")
	f.Add("")
	f.Add("1-1")
	f.Add("0,2,4")
	f.Fuzz(func(t *testing.T, s string) {
		var cells []int
		var err error
		if alloc := allocated(func() { cells, err = ParseRanges(s) }); alloc > rangesBound(len(s)) {
			t.Fatalf("parsing %d bytes allocated %d", len(s), alloc)
		}
		if err != nil {
			return
		}
		for i := 1; i < len(cells); i++ {
			if cells[i] <= cells[i-1] {
				t.Fatalf("ParseRanges(%q) not strictly ascending: %v", s, cells)
			}
		}
		out := FormatRanges(cells)
		cells2, err := ParseRanges(out)
		if err != nil {
			t.Fatalf("ParseRanges rejects FormatRanges' output %q: %v", out, err)
		}
		if len(cells) == 0 && len(cells2) == 0 {
			return
		}
		if !reflect.DeepEqual(cells, cells2) {
			t.Fatalf("round trip %q -> %q: %v != %v", s, out, cells, cells2)
		}
	})
}
