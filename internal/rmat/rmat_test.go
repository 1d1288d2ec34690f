package rmat

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSizes(t *testing.T) {
	p := DefaultParams(10)
	if p.NumVertices() != 1024 {
		t.Fatalf("NumVertices = %d", p.NumVertices())
	}
	if p.NumDirectedEdges() != 16*1024 {
		t.Fatalf("NumDirectedEdges = %d", p.NumDirectedEdges())
	}
	el := Generate(p)
	if el.N != 1024 {
		t.Fatalf("N = %d", el.N)
	}
	if el.M() != 2*16*1024 { // doubled
		t.Fatalf("M = %d", el.M())
	}
	if err := el.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(DefaultParams(8))
	b := Generate(DefaultParams(8))
	if a.M() != b.M() {
		t.Fatalf("M mismatch %d vs %d", a.M(), b.M())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	p1 := DefaultParams(8)
	p2 := DefaultParams(8)
	p2.Seed = 999
	a := Generate(p1)
	b := Generate(p2)
	same := 0
	for i := range a.Edges {
		if a.Edges[i] == b.Edges[i] {
			same++
		}
	}
	if same == len(a.Edges) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestSymmetricPairs(t *testing.T) {
	p := DefaultParams(8)
	el := Generate(p)
	m := p.NumDirectedEdges()
	for i := int64(0); i < m; i++ {
		e, r := el.Edges[i], el.Edges[m+i]
		if e.U != r.V || e.V != r.U {
			t.Fatalf("edge %d not mirrored: %v vs %v", i, e, r)
		}
	}
}

func TestNoPermuteNoSymmetric(t *testing.T) {
	p := DefaultParams(8)
	p.Permute = false
	p.Symmetric = false
	el := Generate(p)
	if el.M() != p.NumDirectedEdges() {
		t.Fatalf("M = %d", el.M())
	}
	// Without permutation edge i must equal GenerateEdge(p, i) exactly.
	for i := int64(0); i < el.M(); i++ {
		if el.Edges[i] != GenerateEdge(p, i) {
			t.Fatalf("edge %d does not match GenerateEdge", i)
		}
	}
}

// RMAT with A=0.57 concentrates edges on low vertex ids; after permutation
// the skew must remain in the degree distribution (scale-free) even though
// specific ids are randomized.
func TestSkewedDegreeDistribution(t *testing.T) {
	p := DefaultParams(12)
	el := Generate(p)
	deg := el.OutDegrees()
	mean := float64(el.M()) / float64(el.N)
	if max := slices.Max(deg); max < 10*int64(mean) {
		t.Fatalf("expected scale-free skew: max=%d mean=%.1f", max, mean)
	}
	if !slices.Contains(deg, 0) {
		t.Fatal("expected some zero-degree vertices in RMAT")
	}
}

// Property: every generated edge lies in range for arbitrary small scales.
func TestQuickEdgeRange(t *testing.T) {
	f := func(scaleRaw uint8, idx uint16, seed uint64) bool {
		scale := int(scaleRaw%10) + 1
		p := DefaultParams(scale)
		p.Seed = seed
		e := GenerateEdge(p, int64(idx))
		n := p.NumVertices()
		return e.U >= 0 && e.U < n && e.V >= 0 && e.V < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTEPSEdgeCount(t *testing.T) {
	if TEPSEdgeCount(20) != (1<<20)*16 {
		t.Fatalf("TEPSEdgeCount(20) = %d", TEPSEdgeCount(20))
	}
}

func BenchmarkGenerateScale14(b *testing.B) {
	p := DefaultParams(14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(p)
	}
}

// TEPSEdgeCount returns the edge count the Graph500 rules use in the
// traversed-edges-per-second metric for a given scale: m/2 = 2^scale * 16
// (paper §VI-A3 — the undirected edge count, not the doubled one).
func TEPSEdgeCount(scale int) int64 {
	return (int64(1) << uint(scale)) * 16
}
