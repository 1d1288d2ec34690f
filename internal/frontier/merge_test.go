package frontier

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randSet returns up to n distinct ids below span, ascending.
func randSet(rng *rand.Rand, n, span int) []uint32 {
	l := make([]uint32, n)
	for j := range l {
		l[j] = uint32(rng.Intn(span))
	}
	return SortUnique(l)
}

// unionOf is the map reference of a union: every id of any list, once,
// ascending.
func unionOf(lists [][]uint32) []uint32 {
	seen := map[uint32]bool{}
	var all []uint32
	for _, l := range lists {
		for _, v := range l {
			if !seen[v] {
				seen[v] = true
				all = append(all, v)
			}
		}
	}
	slices.Sort(all)
	return all
}

// TestMergeSorted: merging sets is their union — an id several lists hold
// comes out once — for zero to five lists, through the arena or not, and the
// inputs are left alone.
func TestMergeSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var arena Arena
	for trial := 0; trial < 300; trial++ {
		arena.Reset()
		lists := make([][]uint32, rng.Intn(6))
		for i := range lists {
			// A narrow span makes most ids shared, a wide one almost none.
			lists[i] = randSet(rng, rng.Intn(30), []int{8, 100, 1 << 20}[rng.Intn(3)])
		}
		before := make([][]uint32, len(lists))
		for i, l := range lists {
			before[i] = slices.Clone(l)
		}
		want := unionOf(lists)
		for _, got := range [][]uint32{MergeSorted(lists), MergeSortedArena(&arena, lists)} {
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: merged %v, want the union %v of %v", trial, got, want, lists)
			}
		}
		if !reflect.DeepEqual(lists, before) {
			t.Fatalf("trial %d: merge mutated its inputs", trial)
		}
	}
	// A repeat inside one list is that list's own: the merge drops an id only
	// against another list's head.
	if got := MergeSorted([][]uint32{{1, 1, 4}, {1, 2}}); !slices.Equal(got, []uint32{1, 1, 2, 4}) {
		t.Fatalf("merge of {1 1 4} and {1 2} = %v", got)
	}
}

func TestMergeSortedCopies(t *testing.T) {
	src := []uint32{1, 2, 3}
	got := MergeSorted([][]uint32{src})
	got[0] = 99
	if src[0] != 1 {
		t.Fatal("MergeSorted aliased its input")
	}
}

// TestBinsSortedTracking: Uniquify marks bins sorted, Add clears the mark,
// Reset restores it, and tiny bins are always sorted.
func TestBinsSortedTracking(t *testing.T) {
	b := NewBins(2)
	if !b.IsSorted(0) {
		t.Fatal("empty bin not sorted")
	}
	b.Add(0, 9)
	if !b.IsSorted(0) {
		t.Fatal("single-id bin not sorted")
	}
	b.Add(0, 3)
	if b.IsSorted(0) {
		t.Fatal("unsorted bin flagged sorted")
	}
	b.Uniquify(0, nil)
	if !b.IsSorted(0) {
		t.Fatal("uniquified bin not flagged sorted")
	}
	b.Add(0, 1)
	if b.IsSorted(0) {
		t.Fatal("Add did not clear the sorted flag")
	}
	b.Reset()
	if !b.IsSorted(0) || !b.IsSorted(1) {
		t.Fatal("Reset did not restore the sorted flag")
	}
	// Literal-constructed bins (no tracking state) must be safe and report
	// false for multi-id bins.
	lit := &Bins{PerGPU: [][]uint32{{5, 1}}}
	if lit.IsSorted(0) {
		t.Fatal("untracked multi-id bin flagged sorted")
	}
	lit.Add(0, 2) // must not panic
}

// FuzzMergeUnion holds the union to the map reference on arbitrary lists: the
// bytes split into up to four lists at the cut points, each made a set first
// (what the exchange stages), the shift narrowing the id range until most ids
// are shared.
func FuzzMergeUnion(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(idBytes([]uint32{1, 2, 3, 1, 2, 3, 1, 2, 3}), uint8(0), uint8(3), uint8(6), uint8(9))
	f.Add(idBytes([]uint32{7, 7, 7, 7, 7, 7}), uint8(0), uint8(1), uint8(1), uint8(4))
	f.Add(idBytes([]uint32{1 << 31, 5, 1<<32 - 1, 0, 5, 9, 1 << 31}), uint8(0), uint8(2), uint8(4), uint8(5))
	f.Add(idBytes(idCases()["dup-heavy"]), uint8(20), uint8(40), uint8(90), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, shift, c1, c2, c3 uint8) {
		ids := make([]uint32, len(data)/4)
		for i := range ids {
			ids[i] = binary.LittleEndian.Uint32(data[4*i:]) >> (shift % 32)
		}
		cuts := []int{0, int(c1), int(c2), int(c3), len(ids)}
		for i := range cuts {
			cuts[i] = min(cuts[i], len(ids))
		}
		slices.Sort(cuts)
		var lists [][]uint32
		for i := 1; i < len(cuts); i++ {
			lists = append(lists, SortUnique(slices.Clone(ids[cuts[i-1]:cuts[i]])))
		}
		want := unionOf(lists)
		var arena Arena
		for round := 0; round < 2; round++ { // the second round runs inside the arena's block
			arena.Reset()
			if got := MergeSortedArena(&arena, lists); !slices.Equal(got, want) {
				t.Fatalf("union of %v = %v, want %v", lists, got, want)
			}
		}
	})
}

// BenchmarkMergeUnion is the relay's merge at the three overlaps that matter:
// disjoint sets (every id survives), half of one shared with the other, and
// identical sets (the output is one of them). The sets are random draws from a
// 16 K-id space, a fresh pair each call out of 64, so which head is smaller is
// as unpredictable as it is on frontier ids. ns/id counts input ids — what
// the merge reads.
func BenchmarkMergeUnion(b *testing.B) {
	const n, pairs = 1 << 10, 64
	rng := rand.New(rand.NewSource(24))
	for _, overlap := range []int{0, 50, 100} {
		xs, ys := make([][]uint32, pairs), make([][]uint32, pairs)
		for p := range xs {
			pool := rng.Perm(16 * n)[:2*n] // x, then what y takes instead of x's
			x, y := make([]uint32, n), make([]uint32, n)
			for i := range x {
				x[i], y[i] = uint32(pool[i]), uint32(pool[i])
				if rng.Intn(100) >= overlap {
					y[i] = uint32(pool[n+i])
				}
			}
			xs[p], ys[p] = SortUnique(x), SortUnique(y)
		}
		b.Run(fmt.Sprintf("overlap=%d%%", overlap), func(b *testing.B) {
			var arena Arena
			var out int
			for i := 0; i < b.N; i++ {
				arena.Reset()
				out = len(MergeSortedArena(&arena, [][]uint32{xs[i%pairs], ys[i%pairs]}))
			}
			sortSink += out
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*n*b.N), "ns/id")
			b.ReportMetric(float64(out)/float64(2*n), "out/in")
		})
	}
}
