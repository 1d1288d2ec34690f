package bitmask

import (
	"fmt"
	"math/bits"
)

// Matrix is a dense rows×k bit matrix stored row-major in 64-bit words: one
// row per vertex, one bit per query. It is the visited/frontier state of the
// multi-source shared sweep (MS-BFS): row r's bit q says "vertex r has been
// reached by query q". Rows are exposed as raw word slices so the sweep's
// hot loops run word-wise OR/ANDNOT folds, and the flat word storage is
// exposed through Words so delegate matrices ship through the same OR
// allreduce as single-query delegate masks.
type Matrix struct {
	rows  int64
	k     int
	w     int // words per row = ceil(k/64)
	words []uint64
}

// NewMatrix returns a rows×k matrix, all bits clear.
func NewMatrix(rows int64, k int) *Matrix {
	if rows < 0 || k <= 0 {
		panic(fmt.Sprintf("bitmask: invalid matrix %d×%d", rows, k))
	}
	w := (k + wordBits - 1) / wordBits
	return &Matrix{rows: rows, k: k, w: w, words: make([]uint64, rows*int64(w))}
}

// Rows returns the row count.
func (m *Matrix) Rows() int64 { return m.rows }

// K returns the query-set width in bits.
func (m *Matrix) K() int { return m.k }

// W returns the number of words per row.
func (m *Matrix) W() int { return m.w }

// Row returns row r's word slice. Mutating it mutates the matrix.
func (m *Matrix) Row(r int64) []uint64 {
	off := r * int64(m.w)
	return m.words[off : off+int64(m.w) : off+int64(m.w)]
}

// Words returns the flat row-major backing storage.
func (m *Matrix) Words() []uint64 { return m.words }

// Reset clears all bits.
func (m *Matrix) Reset() {
	clear(m.words)
}

// Set sets bit q of row r.
func (m *Matrix) Set(r int64, q int) {
	m.words[r*int64(m.w)+int64(q/wordBits)] |= 1 << uint(q%wordBits)
}

// Get reports bit q of row r.
func (m *Matrix) Get(r int64, q int) bool {
	return m.words[r*int64(m.w)+int64(q/wordBits)]&(1<<uint(q%wordBits)) != 0
}

// Any reports whether any bit of the whole matrix is set.
func (m *Matrix) Any() bool {
	for _, w := range m.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Row-level word folds. All operands must have equal length (the sweep's
// rows all share one width); length mismatches panic via the bounds check.
// Empty rows (a graph without delegates has a 0-word delegate matrix) fold
// to nothing.

// RowOr sets dst |= src.
func RowOr(dst, src []uint64) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i, w := range src {
		dst[i] |= w
	}
}

// RowAndNot sets dst &^= src.
func RowAndNot(dst, src []uint64) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i, w := range src {
		dst[i] &^= w
	}
}

// RowAndNotInto writes a &^ b into dst and reports whether any bit survived.
func RowAndNotInto(dst, a, b []uint64) bool {
	if len(a) == 0 {
		return false
	}
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	var any uint64
	for i, w := range a {
		nw := w &^ b[i]
		dst[i] = nw
		any |= nw
	}
	return any != 0
}

// RowAny reports whether any bit of the row is set.
func RowAny(r []uint64) bool {
	for _, w := range r {
		if w != 0 {
			return true
		}
	}
	return false
}

// RowCount returns the row's popcount.
func RowCount(r []uint64) int64 {
	var c int64
	for _, w := range r {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// RowForEach calls fn for every set bit of the row in ascending order.
func RowForEach(r []uint64, fn func(q int)) {
	for wi, w := range r {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}
