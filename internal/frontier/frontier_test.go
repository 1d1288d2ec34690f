package frontier

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBinsBasics(t *testing.T) {
	b := NewBins(4)
	b.Add(0, 10)
	b.Add(0, 11)
	b.Add(3, 99)
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

// Touched lists the bins Add made non-empty since the last Reset, each once,
// in the order they were first filled; Reset empties exactly those and
// starts the list again.
func TestBinsTouched(t *testing.T) {
	b := NewBins(5)
	for _, g := range []int{3, 0, 3, 3, 4, 0} {
		b.Add(g, uint32(g))
	}
	if got := b.Touched(); !slices.Equal(got, []int{3, 0, 4}) {
		t.Fatalf("Touched = %v, want [3 0 4]", got)
	}
	if b.UniquifyAll(nil) != 3 || b.Count() != 3 {
		t.Fatalf("after UniquifyAll: Count = %d, want 3", b.Count())
	}
	b.Reset()
	for g, bin := range b.PerGPU {
		if len(bin) != 0 || !b.IsSorted(g) {
			t.Fatalf("after Reset: bin %d = %v, sorted %v", g, bin, b.IsSorted(g))
		}
	}
	if got := b.Touched(); len(got) != 0 {
		t.Fatalf("after Reset: Touched = %v", got)
	}
	b.Add(1, 7)
	if got := b.Touched(); !slices.Equal(got, []int{1}) || b.Count() != 1 {
		t.Fatalf("after one Add: Touched = %v, Count = %d", got, b.Count())
	}
}

func TestUniquify(t *testing.T) {
	b := NewBins(2)
	for _, v := range []uint32{5, 3, 5, 5, 1, 3} {
		b.Add(0, v)
	}
	removed := b.Uniquify(0, nil)
	if removed != 3 {
		t.Fatalf("removed = %d, want 3", removed)
	}
	want := []uint32{1, 3, 5}
	got := b.PerGPU[0]
	if len(got) != len(want) {
		t.Fatalf("bin = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bin = %v, want %v", got, want)
		}
	}
	if b.Uniquify(1, nil) != 0 {
		t.Fatal("empty bin uniquify should remove 0")
	}
}

func TestUniquifyAll(t *testing.T) {
	b := NewBins(3)
	b.Add(0, 1)
	b.Add(0, 1)
	b.Add(2, 7)
	b.Add(2, 7)
	b.Add(2, 8)
	if got := b.UniquifyAll(nil); got != 2 {
		t.Fatalf("UniquifyAll = %d", got)
	}
}

// unpackRank is UnpackRankInto into fresh slots.
func unpackRank(buf []byte, gpusPerRank int) ([][]uint32, error) {
	out := make([][]uint32, gpusPerRank)
	return out, UnpackRankInto(buf, out)
}

func TestPackUnpackRoundTrip(t *testing.T) {
	const gpusPerRank = 3
	b := NewBins(2 * gpusPerRank)
	// Destination rank 1 owns GPUs 3,4,5.
	b.Add(3, 100)
	b.Add(4, 200)
	b.Add(4, 201)
	// Rank 0's bins must not leak into rank 1's payload.
	b.Add(0, 999)
	buf := b.PackRank(1, gpusPerRank)
	slots, err := unpackRank(buf, gpusPerRank)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots[0]) != 1 || slots[0][0] != 100 {
		t.Fatalf("slot 0 = %v", slots[0])
	}
	if len(slots[1]) != 2 || slots[1][0] != 200 || slots[1][1] != 201 {
		t.Fatalf("slot 1 = %v", slots[1])
	}
	if len(slots[2]) != 0 {
		t.Fatalf("slot 2 = %v", slots[2])
	}
}

func TestUnpackErrors(t *testing.T) {
	if _, err := unpackRank([]byte{1, 2}, 1); err == nil {
		t.Fatal("accepted truncated header")
	}
	// Header claims 2 ids but payload has none.
	if _, err := unpackRank([]byte{2, 0, 0, 0}, 1); err == nil {
		t.Fatal("accepted truncated payload")
	}
	// Trailing garbage.
	buf := NewBins(1).PackRank(0, 1)
	buf = append(buf, 0xff)
	if _, err := unpackRank(buf, 1); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

func TestQuickPackUnpack(t *testing.T) {
	f := func(seed int64, gpusRaw uint8) bool {
		gpus := int(gpusRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		b := NewBins(gpus)
		want := make([][]uint32, gpus)
		for g := 0; g < gpus; g++ {
			for i := 0; i < rng.Intn(20); i++ {
				v := rng.Uint32()
				b.Add(g, v)
				want[g] = append(want[g], v)
			}
		}
		slots, err := unpackRank(b.PackRank(0, gpus), gpus)
		if err != nil {
			return false
		}
		for g := range want {
			if len(slots[g]) != len(want[g]) {
				return false
			}
			for i := range want[g] {
				if slots[g][i] != want[g][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSortUnique(t *testing.T) {
	got := SortUnique([]uint32{9, 1, 9, 2, 2, 7})
	want := []uint32{1, 2, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if out := SortUnique(nil); len(out) != 0 {
		t.Fatal("SortUnique(nil) not empty")
	}
}
