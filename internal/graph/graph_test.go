package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func smallList() *EdgeList {
	el := NewEdgeList(5)
	el.Add(0, 1)
	el.Add(0, 2)
	el.Add(1, 2)
	el.Add(3, 0)
	el.Add(3, 4)
	el.Add(3, 4) // parallel edge
	return el
}

func TestEdgeListBasics(t *testing.T) {
	el := smallList()
	if el.M() != 6 {
		t.Fatalf("M = %d, want 6", el.M())
	}
	if err := el.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if el.ByteSize() != 6*16 {
		t.Fatalf("ByteSize = %d", el.ByteSize())
	}
}

func TestValidateCatchesRangeErrors(t *testing.T) {
	el := NewEdgeList(3)
	el.Add(0, 3)
	if el.Validate() == nil {
		t.Fatal("Validate accepted out-of-range destination")
	}
	el2 := NewEdgeList(3)
	el2.Add(-1, 0)
	if el2.Validate() == nil {
		t.Fatal("Validate accepted negative source")
	}
}

// CheckedOutDegrees is Validate and OutDegrees in one pass: the same verdict,
// word for word, and the same counts.
func TestCheckedOutDegrees(t *testing.T) {
	good := smallList()
	deg, err := good.CheckedOutDegrees()
	if err != nil || !slices.Equal(deg, good.OutDegrees()) {
		t.Fatalf("CheckedOutDegrees = %v, %v; OutDegrees = %v", deg, err, good.OutDegrees())
	}
	for _, bad := range [][2]int64{{0, 3}, {3, 0}, {-1, 0}, {0, -1}} {
		el := NewEdgeList(3)
		el.Add(1, 2)
		el.Add(bad[0], bad[1])
		want := el.Validate()
		if _, err := el.CheckedOutDegrees(); want == nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("edge %v: CheckedOutDegrees says %v, Validate %v", bad, err, want)
		}
	}
}

func TestSymmetrizeDoubles(t *testing.T) {
	el := smallList()
	sym := el.Symmetrize()
	if sym.M() != 2*el.M() {
		t.Fatalf("Symmetrize M = %d, want %d", sym.M(), 2*el.M())
	}
	// Every original edge and its reverse must be present.
	type pair = Edge
	count := map[pair]int{}
	for _, e := range sym.Edges {
		count[e]++
	}
	for _, e := range el.Edges {
		if count[e] < 1 || count[Edge{e.V, e.U}] < 1 {
			t.Fatalf("edge %v or its reverse missing after Symmetrize", e)
		}
	}
}

func TestOutDegrees(t *testing.T) {
	deg := smallList().OutDegrees()
	want := []int64{2, 1, 0, 3, 0}
	for i, w := range want {
		if deg[i] != w {
			t.Fatalf("deg[%d] = %d, want %d", i, deg[i], w)
		}
	}
}

func TestBuildCSR(t *testing.T) {
	c := BuildCSR(smallList())
	if c.M() != 6 {
		t.Fatalf("CSR M = %d", c.M())
	}
	if got := c.OutDegree(3); got != 3 {
		t.Fatalf("OutDegree(3) = %d", got)
	}
	c.SortRows()
	nbr := c.Neighbors(3)
	want := []int64{0, 4, 4}
	for i, w := range want {
		if nbr[i] != w {
			t.Fatalf("Neighbors(3) = %v, want %v", nbr, want)
		}
	}
	if len(c.Neighbors(2)) != 0 {
		t.Fatal("Neighbors(2) should be empty")
	}
	if c.ByteSize() != int64(6*8)+int64(6*8) {
		t.Fatalf("CSR ByteSize = %d", c.ByteSize())
	}
}

// Property: CSR preserves the multiset of edges.
func TestQuickCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(rng.Intn(50) + 1)
		el := NewEdgeList(n)
		for i := 0; i < rng.Intn(200); i++ {
			el.Add(rng.Int63n(n), rng.Int63n(n))
		}
		c := BuildCSR(el)
		if c.M() != el.M() {
			return false
		}
		want := map[Edge]int{}
		for _, e := range el.Edges {
			want[e]++
		}
		got := map[Edge]int{}
		for u := int64(0); u < n; u++ {
			for _, v := range c.Neighbors(u) {
				got[Edge{u, v}]++
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, cnt := range want {
			if got[k] != cnt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	s := Stats([]int64{0, 3, 5, 0, 2})
	if s.Min != 0 || s.Max != 5 || s.Zero != 2 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.Mean != 2.0 {
		t.Fatalf("Mean = %f", s.Mean)
	}
	if z := Stats(nil); z.Max != 0 || z.Mean != 0 {
		t.Fatalf("Stats(nil) = %+v", z)
	}
}

func TestPermutationIsBijection(t *testing.T) {
	for _, n := range []int64{1, 2, 7, 64, 100, 1 << 12} {
		p := NewPermutation(n, 12345)
		seen := make([]bool, n)
		for v := int64(0); v < n; v++ {
			img := p.Map(v)
			if img < 0 || img >= n {
				t.Fatalf("n=%d: Map(%d)=%d out of range", n, v, img)
			}
			if seen[img] {
				t.Fatalf("n=%d: Map not injective at %d", n, v)
			}
			seen[img] = true
		}
	}
}

func TestPermutationDeterministicAndSeeded(t *testing.T) {
	p1 := NewPermutation(1000, 7)
	p2 := NewPermutation(1000, 7)
	p3 := NewPermutation(1000, 8)
	same, diff := true, false
	for v := int64(0); v < 1000; v++ {
		if p1.Map(v) != p2.Map(v) {
			same = false
		}
		if p1.Map(v) != p3.Map(v) {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different permutations")
	}
	if !diff {
		t.Fatal("different seeds produced identical permutations")
	}
}

func TestPermutationApply(t *testing.T) {
	el := smallList()
	orig := make([]Edge, len(el.Edges))
	copy(orig, el.Edges)
	p := NewPermutation(el.N, 99)
	p.Apply(el)
	for i, e := range el.Edges {
		if e.U != p.Map(orig[i].U) || e.V != p.Map(orig[i].V) {
			t.Fatalf("Apply mismatch at edge %d", i)
		}
	}
	if err := el.Validate(); err != nil {
		t.Fatalf("permuted list invalid: %v", err)
	}
}

// Property: permutation is a bijection for arbitrary domains and seeds.
func TestQuickPermutationBijection(t *testing.T) {
	f := func(nRaw uint16, seed uint64) bool {
		n := int64(nRaw%2000) + 1
		p := NewPermutation(n, seed)
		seen := make([]bool, n)
		for v := int64(0); v < n; v++ {
			img := p.Map(v)
			if img < 0 || img >= n || seen[img] {
				return false
			}
			seen[img] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	el := NewEdgeList(1 << 14)
	for i := 0; i < 1<<18; i++ {
		el.Add(rng.Int63n(el.N), rng.Int63n(el.N))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCSR(el)
	}
}
