package frontier

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestMergeSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		k := rng.Intn(4)
		lists := make([][]uint32, k)
		var all []uint32
		for i := range lists {
			n := rng.Intn(30)
			l := make([]uint32, n)
			for j := range l {
				l[j] = uint32(rng.Intn(100))
			}
			sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
			lists[i] = l
			all = append(all, l...)
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		got := MergeSorted(lists)
		if len(all) == 0 {
			if len(got) != 0 {
				t.Fatalf("trial %d: merged %d ids from empty input", trial, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, all) {
			t.Fatalf("trial %d: merge mismatch", trial)
		}
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
