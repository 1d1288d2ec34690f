package frontier

import "testing"

func TestRecordBinsBasics(t *testing.T) {
	const w = 2
	b := NewRecordBins(3, w)
	b.Add(0, 5, []uint64{1, 0})
	b.Add(0, 9, []uint64{0, 1 << 63})
	b.Add(2, 1, []uint64{3, 3})
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
	if m := b.Mask(0, 1); m[1] != 1<<63 {
		t.Fatalf("mask view = %v", m)
	}

	b.Reset()
	if b.Count() != 0 {
		t.Fatal("reset left records")
	}
}
