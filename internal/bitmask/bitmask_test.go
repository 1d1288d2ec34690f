package bitmask

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewSizes(t *testing.T) {
	cases := []struct {
		n     int64
		words int
	}{{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {1000, 16}}
	for _, c := range cases {
		m := New(c.n)
		if len(m.Words()) != c.words {
			t.Errorf("New(%d): got %d words, want %d", c.n, len(m.Words()), c.words)
		}
		if m.Len() != c.n {
			t.Errorf("New(%d).Len() = %d", c.n, m.Len())
		}
		if m.ByteSize() != int64(c.words)*8 {
			t.Errorf("New(%d).ByteSize() = %d, want %d", c.n, m.ByteSize(), c.words*8)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	m := New(200)
	for _, i := range []int64{0, 1, 63, 64, 65, 127, 128, 199} {
		if m.Get(i) {
			t.Fatalf("bit %d set in fresh mask", i)
		}
		m.Set(i)
		if !m.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		m.Reset()
		if m.Get(i) {
			t.Fatalf("bit %d still set after Reset", i)
		}
	}
}

func TestCountAnyReset(t *testing.T) {
	m := New(300)
	if m.Count() != 0 {
		t.Fatal("fresh mask has set bits")
	}
	idx := []int64{0, 5, 64, 200, 299}
	for _, i := range idx {
		m.Set(i)
	}
	if got := m.Count(); got != int64(len(idx)) {
		t.Fatalf("Count = %d, want %d", got, len(idx))
	}
	m.Reset()
	if m.Count() != 0 {
		t.Fatal("Reset did not clear mask")
	}
}

func TestFillRespectsLength(t *testing.T) {
	for _, n := range []int64{1, 63, 64, 65, 130} {
		m := New(n)
		m.fill()
		if got := m.Count(); got != n {
			t.Errorf("Fill(%d): Count = %d", n, got)
		}
	}
}

func TestSetAtomicReportsTransition(t *testing.T) {
	m := New(128)
	if !m.setAtomic(77) {
		t.Fatal("first SetAtomic returned false")
	}
	if m.setAtomic(77) {
		t.Fatal("second SetAtomic returned true")
	}
	if !m.getAtomic(77) {
		t.Fatal("GetAtomic(77) = false")
	}
}

func TestSetAtomicConcurrent(t *testing.T) {
	const n = 4096
	const workers = 8
	m := New(n)
	var wins [workers]int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < n; i++ {
				if m.setAtomic(i) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, v := range wins {
		total += v
	}
	if total != n {
		t.Fatalf("total wins = %d, want %d (each bit won exactly once)", total, n)
	}
	if m.Count() != n {
		t.Fatalf("Count = %d, want %d", m.Count(), n)
	}
}

func TestOrAndNotDiff(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(64)
	b.Set(64)
	b.Set(99)

	u := clone(a)
	u.Or(b)
	for _, i := range []int64{1, 64, 99} {
		if !u.Get(i) {
			t.Errorf("union missing bit %d", i)
		}
	}
	if u.Count() != 3 {
		t.Errorf("union Count = %d, want 3", u.Count())
	}

	var diff []int64 // bits in b not in a
	b.ForEachExcluding(func(i int64) { diff = append(diff, i) }, a)
	if n := b.CountExcluding(a); n != 1 || len(diff) != 1 || diff[0] != 99 {
		t.Errorf("b &^ a: count %d, bits %v", n, diff)
	}
}

func TestForEachOrder(t *testing.T) {
	m := New(500)
	want := []int64{3, 63, 64, 128, 400, 499}
	for _, i := range want {
		m.Set(i)
	}
	var got []int64
	m.ForEach(func(i int64) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
}

func TestFromWordsAliases(t *testing.T) {
	words := make([]uint64, 2)
	m := fromWords(100, words)
	m.Set(65)
	if words[1] != 2 {
		t.Fatalf("FromWords does not alias: words[1] = %d", words[1])
	}
}

func TestFromWordsShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromWords with short slice did not panic")
		}
	}()
	fromWords(129, make([]uint64, 2))
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched lengths did not panic")
		}
	}()
	New(10).Or(New(11))
}

func TestReduceOrMatchesSequentialFold(t *testing.T) {
	const n = 777
	rng := rand.New(rand.NewSource(42))
	srcs := make([]*Mask, 5)
	for i := range srcs {
		srcs[i] = New(n)
		for j := 0; j < 50; j++ {
			srcs[i].Set(rng.Int63n(n))
		}
	}
	got := New(n)
	for _, s := range srcs {
		got.Or(s)
	}
	want := New(n)
	for _, s := range srcs {
		for i := int64(0); i < n; i++ {
			if s.Get(i) {
				want.Set(i)
			}
		}
	}
	if !equal(got, want) {
		t.Fatal("Or fold != sequential fold")
	}
}

// Property: inclusion-exclusion, Count(a) + Count(b &^ a) == Count(a|b).
func TestQuickUnionCount(t *testing.T) {
	f := func(seedsA, seedsB []uint16) bool {
		const n = 1 << 16
		a, b := New(n), New(n)
		for _, s := range seedsA {
			a.Set(int64(s))
		}
		for _, s := range seedsB {
			b.Set(int64(s))
		}
		u := clone(a)
		u.Or(b)
		return a.Count()+b.CountExcluding(a) == u.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Or is commutative and idempotent.
func TestQuickOrAlgebra(t *testing.T) {
	f := func(seedsA, seedsB []uint16) bool {
		const n = 1 << 16
		a, b := New(n), New(n)
		for _, s := range seedsA {
			a.Set(int64(s))
		}
		for _, s := range seedsB {
			b.Set(int64(s))
		}
		ab := clone(a)
		ab.Or(b)
		ba := clone(b)
		ba.Or(a)
		abb := clone(ab)
		abb.Or(b)
		return equal(ab, ba) && equal(abb, ab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOrAtomicMatchesOr(t *testing.T) {
	a := New(1000)
	b := New(1000)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		a.Set(rng.Int63n(1000))
		b.Set(rng.Int63n(1000))
	}
	plain := clone(a)
	plain.Or(b)
	at := clone(a)
	at.orAtomic(b)
	if !equal(plain, at) {
		t.Fatal("OrAtomic != Or")
	}
}

func BenchmarkSetAtomic(b *testing.B) {
	m := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.setAtomic(int64(i) & (1<<20 - 1))
	}
}

func BenchmarkOr(b *testing.B) {
	x := New(1 << 20)
	y := New(1 << 20)
	y.fill()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func clone(m *Mask) *Mask {
	c := New(m.Len())
	c.CopyFrom(m)
	return c
}

func equal(a, b *Mask) bool {
	return a.Len() == b.Len() && slices.Equal(a.Words(), b.Words())
}

// The forms below have no library caller; they stay as the subjects of the
// tests above.

// fromWords wraps an existing word slice as a mask of n bits. The slice is
// used directly (not copied); it must contain at least ceil(n/64) words.
func fromWords(n int64, words []uint64) *Mask {
	need := int((n + wordBits - 1) / wordBits)
	if len(words) < need {
		panic(fmt.Sprintf("bitmask: fromWords needs %d words, got %d", need, len(words)))
	}
	return &Mask{n: n, words: words[:need]}
}

// setAtomic sets bit i with a lock-free read-modify-write and reports whether
// this call changed the bit.
func (m *Mask) setAtomic(i int64) bool {
	addr := &m.words[i/wordBits]
	bit := uint64(1) << uint(i%wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|bit) {
			return true
		}
	}
}

func (m *Mask) getAtomic(i int64) bool {
	return atomic.LoadUint64(&m.words[i/wordBits])&(1<<uint(i%wordBits)) != 0
}

// orAtomic performs m |= other with atomic word updates.
func (m *Mask) orAtomic(other *Mask) {
	m.mustMatch(other)
	for i, w := range other.words {
		if w != 0 {
			atomic.OrUint64(&m.words[i], w)
		}
	}
}

// fill sets all n bits; the trailing bits of the last word stay clear.
func (m *Mask) fill() {
	for i := range m.words {
		m.words[i] = ^uint64(0)
	}
	if rem := m.n % wordBits; rem != 0 && len(m.words) > 0 {
		m.words[len(m.words)-1] &= (1 << uint(rem)) - 1
	}
}
