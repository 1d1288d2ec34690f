package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gcbfs/internal/graph"
)

// TestNeighborsYieldsOutEdges holds Subgraphs.Neighbors to the edge list it
// was distributed from: every vertex yields exactly the multiset of its
// out-edges' heads — parallel copies and self loops included — on one rank,
// odd GPU counts and 1, 2 and 4 GPUs per rank, with no delegates, every
// vertex with an edge a delegate, and a threshold between. A loop that stops
// early stops the iterator.
func TestNeighborsYieldsOutEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfgs := []Config{{1, 1}, {1, 2}, {1, 4}, {3, 1}, {3, 2}, {5, 4}, {2, 2}}
	for trial := 0; trial < 60; trial++ {
		n := int64(1 + rng.Intn(150))
		el := &graph.EdgeList{N: n}
		for i := rng.Intn(int(4 * n)); i >= 0; i-- {
			e := graph.Edge{U: rng.Int63n(n), V: rng.Int63n(n)}
			el.Edges = append(el.Edges, e)
			if rng.Intn(5) == 0 { // a parallel copy
				el.Edges = append(el.Edges, e)
			}
		}
		want := make([][]int64, n)
		for _, e := range el.Edges {
			want[e.U] = append(want[e.U], e.V)
		}
		for _, th := range []int64{1 << 40, 0, 4} {
			for _, cfg := range cfgs {
				sep := Separate(el, th)
				sg, err := Distribute(el, sep, cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("trial %d, n %d, th %d, %d×%d, %d delegates", trial, n, th, cfg.Ranks, cfg.GPUsPerRank, sep.D())
				for v := int64(0); v < n; v++ {
					got := slices.Collect(sg.Neighbors(v))
					slices.Sort(got)
					slices.Sort(want[v])
					if !slices.Equal(got, want[v]) {
						t.Fatalf("%s: vertex %d (delegate %v) yields %v, its out-edges go to %v", label, v, sep.IsDelegate(v), got, want[v])
					}
					if len(got) < 2 {
						continue
					}
					seen := 0
					for range sg.Neighbors(v) {
						if seen++; seen == 1 {
							break
						}
					}
				}
			}
		}
	}
}
