package bitmask

import "testing"

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(5, 130) // 3 words per row
	if len(m.Row(0)) != 3 {
		t.Fatalf("row width = %d words", len(m.Row(0)))
	}
	if RowAny(m.Words()) {
		t.Fatal("fresh matrix has set bits")
	}
	m.Set(0, 0)
	m.Set(4, 129)
	m.Set(2, 64)
	if !get(m, 0, 0) || !get(m, 4, 129) || !get(m, 2, 64) || get(m, 2, 63) {
		t.Fatal("Set/Row mismatch")
	}
	if got := RowCount(m.Row(4)); got != 1 {
		t.Fatalf("RowCount(row 4) = %d", got)
	}
	if len(m.Words()) != 15 {
		t.Fatalf("Words len = %d", len(m.Words()))
	}
	m.Reset()
	if RowAny(m.Words()) {
		t.Fatal("Reset left bits")
	}
}

func TestMatrixRowIsolation(t *testing.T) {
	m := NewMatrix(3, 64)
	m.Set(1, 7)
	for r := int64(0); r < 3; r++ {
		want := int64(0)
		if r == 1 {
			want = 1
		}
		if got := RowCount(m.Row(r)); got != want {
			t.Fatalf("row %d count = %d, want %d", r, got, want)
		}
	}
	// Row views alias the matrix storage.
	m.Row(2)[0] = 1 << 3
	if !get(m, 2, 3) {
		t.Fatal("Row view does not alias storage")
	}
}

func TestRowFolds(t *testing.T) {
	a := []uint64{0b1010, 0b0001}
	b := []uint64{0b0110, 0b0001}
	dst := make([]uint64, 2)
	if !RowAndNotInto(dst, a, b) {
		t.Fatal("RowAndNotInto reported empty")
	}
	if dst[0] != 0b1000 || dst[1] != 0 {
		t.Fatalf("RowAndNotInto = %b,%b", dst[0], dst[1])
	}
	if RowAndNotInto(dst, b, []uint64{0b0110, 0b0001}) {
		t.Fatal("RowAndNotInto reported survivors for a ⊆ b")
	}
	RowOr(dst, a)
	if dst[0] != 0b1010 || dst[1] != 0b0001 {
		t.Fatalf("RowOr = %b,%b", dst[0], dst[1])
	}
	if !RowAny(dst) || RowAny(make([]uint64, 2)) {
		t.Fatal("RowAny mismatch")
	}
	var got []int
	RowForEach([]uint64{1 << 5, 1 << 1}, func(q int) { got = append(got, q) })
	if len(got) != 2 || got[0] != 5 || got[1] != 65 {
		t.Fatalf("RowForEach = %v", got)
	}
}

// get reports bit q of row r.
func get(m *Matrix, r int64, q int) bool {
	return m.Row(r)[q/wordBits]&(1<<uint(q%wordBits)) != 0
}
