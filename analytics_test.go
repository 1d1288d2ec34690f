package gcbfs

import (
	"math"
	"testing"
)

func TestPageRankFacade(t *testing.T) {
	g := RMAT(10)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := svc.PageRank(PageRankOptions{MaxIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Iterations != 15 {
		t.Fatalf("iterations = %d", pr.Iterations)
	}
	var sum float64
	for _, r := range pr.Ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank mass = %f", sum)
	}
	if pr.SimSeconds <= 0 || pr.BytesDelegate == 0 {
		t.Fatalf("missing metrics: %+v", pr)
	}
}

func TestPageRankDefaults(t *testing.T) {
	g := RMAT(9)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 2}))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := svc.PageRank(PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Iterations != 20 {
		t.Fatalf("default iterations = %d, want 20", pr.Iterations)
	}
}

func TestComponentsFacade(t *testing.T) {
	g := NewGraph(7)
	g.AddUndirectedEdge(0, 1)
	g.AddUndirectedEdge(1, 2)
	g.AddUndirectedEdge(4, 5)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 1}))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := svc.Components(0)
	if err != nil {
		t.Fatal(err)
	}
	if !cc.Converged {
		t.Fatal("did not converge")
	}
	want := []int64{0, 0, 0, 3, 4, 4, 6}
	for v, w := range want {
		if cc.Labels[v] != w {
			t.Fatalf("labels = %v, want %v", cc.Labels, want)
		}
	}
}

func TestComponentsBudget(t *testing.T) {
	g := NewGraph(40)
	for v := int64(0); v+1 < 40; v++ {
		g.AddUndirectedEdge(v, v+1)
	}
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := svc.Components(3)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Converged || cc.Iterations != 3 {
		t.Fatalf("budget ignored: %+v", cc)
	}
}
