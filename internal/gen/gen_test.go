package gen

import (
	"slices"
	"testing"

	"gcbfs/internal/graph"
)

func TestPath(t *testing.T) {
	el := Path(5)
	if el.M() != 8 {
		t.Fatalf("M = %d, want 8", el.M())
	}
	deg := el.OutDegrees()
	if deg[0] != 1 || deg[4] != 1 || deg[2] != 2 {
		t.Fatalf("degrees = %v", deg)
	}
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCycle(t *testing.T) {
	el := Cycle(6)
	if el.M() != 12 {
		t.Fatalf("M = %d", el.M())
	}
	for v, d := range el.OutDegrees() {
		if d != 2 {
			t.Fatalf("deg[%d] = %d, want 2", v, d)
		}
	}
	if Cycle(1).M() != 0 {
		t.Fatal("Cycle(1) should have no edges")
	}
}

func TestStar(t *testing.T) {
	el := Star(10)
	deg := el.OutDegrees()
	if deg[0] != 9 {
		t.Fatalf("hub degree = %d", deg[0])
	}
	for v := 1; v < 10; v++ {
		if deg[v] != 1 {
			t.Fatalf("leaf %d degree = %d", v, deg[v])
		}
	}
}

func TestGrid2D(t *testing.T) {
	el := Grid2D(3, 4)
	if el.N != 12 {
		t.Fatalf("N = %d", el.N)
	}
	// 3*3 horizontal + 2*4 vertical undirected edges, doubled.
	if el.M() != int64(2*(3*3+2*4)) {
		t.Fatalf("M = %d", el.M())
	}
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformSymmetric(t *testing.T) {
	el := Uniform(100, 500, 1)
	if el.M() != 1000 {
		t.Fatalf("M = %d", el.M())
	}
	for i := int64(0); i < 500; i++ {
		a, b := el.Edges[2*i], el.Edges[2*i+1]
		if a.U != b.V || a.V != b.U {
			t.Fatalf("pair %d not mirrored", i)
		}
	}
}

func TestSocialNetworkShape(t *testing.T) {
	p := DefaultSocialParams(10)
	el := SocialNetwork(p)
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
	deg := el.OutDegrees()
	var isolated int64
	for _, d := range deg {
		if d == 0 {
			isolated++
		}
	}
	isolatedShare := float64(isolated) / float64(el.N)
	// Target is 50% isolated; RMAT cores have isolated ids of their own so
	// the share lands above the embedding target.
	if isolatedShare < 0.4 {
		t.Fatalf("isolated share = %.2f, want >= 0.4", isolatedShare)
	}
	mean := float64(el.M()) / float64(el.N)
	if max := slices.Max(deg); max < 20*int64(mean+1) {
		t.Fatalf("expected scale-free skew, max=%d mean=%.2f", max, mean)
	}
}

func TestSocialNetworkDeterministic(t *testing.T) {
	a := SocialNetwork(DefaultSocialParams(8))
	b := SocialNetwork(DefaultSocialParams(8))
	if a.M() != b.M() {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("nondeterministic edges")
		}
	}
}

func TestWebGraphLongTail(t *testing.T) {
	p := DefaultWebParams(8)
	p.NumChains = 4
	p.ChainLength = 50
	el := WebGraph(p)
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
	wantN := int64(1<<8) + 4*50
	if el.N != wantN {
		t.Fatalf("N = %d, want %d", el.N, wantN)
	}
	// Chains contribute 2 directed edges per chain vertex.
	coreM := int64(1<<8) * 8 * 2
	if el.M() != coreM+2*4*50 {
		t.Fatalf("M = %d", el.M())
	}
}

func TestWebGraphSymmetric(t *testing.T) {
	el := WebGraph(DefaultWebParams(7))
	count := map[graph.Edge]int{}
	for _, e := range el.Edges {
		count[e]++
	}
	for e, c := range count {
		if count[graph.Edge{U: e.V, V: e.U}] != c {
			t.Fatalf("edge %v has no mirror", e)
		}
	}
}
