// Package bitmask provides dense bit sets used to track the visited status
// of delegate vertices. A delegate occupies a single bit (paper §IV-A), and
// delegate masks are the unit of global reduction in the communication model
// (paper §V-A). The kernels set bits one at a time; the reductions work a
// word at a time.
package bitmask

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Mask is a fixed-capacity dense bit set. The zero value is unusable; create
// masks with New. The underlying word slice is exported through Words so the
// communication layer can ship masks without copying bit by bit.
type Mask struct {
	n     int64 // number of addressable bits
	words []uint64
}

// New returns a mask able to hold n bits, all cleared.
func New(n int64) *Mask {
	if n < 0 {
		panic(fmt.Sprintf("bitmask: negative size %d", n))
	}
	return &Mask{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of addressable bits.
func (m *Mask) Len() int64 { return m.n }

// Words returns the backing word slice. Mutating it mutates the mask.
func (m *Mask) Words() []uint64 { return m.words }

// ByteSize returns the wire size of the mask in bytes (8 per word). This is
// the quantity the paper's communication model charges (d/8 bytes per mask).
func (m *Mask) ByteSize() int64 { return int64(len(m.words)) * 8 }

// Set sets bit i.
func (m *Mask) Set(i int64) {
	m.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (m *Mask) Get(i int64) bool {
	return m.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Reset clears all bits.
func (m *Mask) Reset() {
	for i := range m.words {
		m.words[i] = 0
	}
}

// Count returns the number of set bits.
func (m *Mask) Count() int64 {
	var c int64
	for _, w := range m.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// Or sets m |= other. Both masks must have identical length.
func (m *Mask) Or(other *Mask) {
	m.mustMatch(other)
	for i, w := range other.words {
		m.words[i] |= w
	}
}

// CopyFrom overwrites m with other's bits.
func (m *Mask) CopyFrom(other *Mask) {
	m.mustMatch(other)
	copy(m.words, other.words)
}

// ForEach calls fn for every set bit in ascending order.
func (m *Mask) ForEach(fn func(i int64)) {
	for wi, w := range m.words {
		base := int64(wi) * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + int64(tz))
			w &= w - 1
		}
	}
}

func (m *Mask) mustMatch(other *Mask) {
	if m.n != other.n {
		panic(fmt.Sprintf("bitmask: length mismatch %d vs %d", m.n, other.n))
	}
}

// CountExcluding returns popcount(m &^ sub0 &^ sub1 ...) without
// materializing the intermediate mask — the backward-pull kernels size their
// candidate sets this way (unvisited ∩ source-mask).
func (m *Mask) CountExcluding(subs ...*Mask) int64 {
	var c int64
	for i, w := range m.words {
		for _, s := range subs {
			m.mustMatch(s)
			w &^= s.words[i]
		}
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// ForEachExcluding calls fn for every bit set in m but in none of subs,
// ascending. The word value is snapshotted before iteration, so fn may set
// bits in subs without affecting the current word's traversal.
func (m *Mask) ForEachExcluding(fn func(i int64), subs ...*Mask) {
	for wi, w := range m.words {
		for _, s := range subs {
			m.mustMatch(s)
			w &^= s.words[wi]
		}
		base := int64(wi) * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + int64(tz))
			w &= w - 1
		}
	}
}
