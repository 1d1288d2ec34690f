package delta

import (
	"math/rand"
	"slices"
	"testing"

	"gcbfs/internal/graph"
	"gcbfs/internal/rmat"
)

// referenceInvalidated is the oracle Invalidated is held to: the version this
// package shipped before the parent-chain walk, which builds a child index of
// the whole tree by counting sort and pushes each orphan's subtree through it.
// Test code only.
func referenceInvalidated(levels []int32, parents []int64, b *Batch) []bool {
	n := len(levels)
	invalid := make([]bool, n)
	var roots []int64
	orphan := func(child, lost int64) {
		if child < int64(n) && levels[child] >= 1 && parents[child] == lost && !invalid[child] {
			invalid[child] = true
			roots = append(roots, child)
		}
	}
	for _, e := range b.Deletes {
		orphan(e.V, e.U)
		orphan(e.U, e.V)
	}
	if len(roots) == 0 {
		return invalid
	}
	count := make([]int32, n+1)
	for v := 0; v < n; v++ {
		if p := parents[v]; p >= 0 && p != int64(v) {
			count[p+1]++
		}
	}
	for i := 1; i <= n; i++ {
		count[i] += count[i-1]
	}
	children := make([]int64, count[n])
	cursor := make([]int32, n)
	copy(cursor, count[:n])
	for v := 0; v < n; v++ {
		if p := parents[v]; p >= 0 && p != int64(v) {
			children[cursor[p]] = int64(v)
			cursor[p]++
		}
	}
	for len(roots) > 0 {
		v := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		for _, w := range children[count[v]:count[v+1]] {
			if !invalid[w] {
				invalid[w] = true
				roots = append(roots, w)
			}
		}
	}
	return invalid
}

// randomTree draws a BFS outcome over n vertices: a root at level 0, each
// reached vertex's parent a vertex one level up, and about a tenth of the
// vertices unreached (level and parent -1).
func randomTree(rng *rand.Rand, n int) (levels []int32, parents []int64) {
	levels, parents = make([]int32, n), make([]int64, n)
	order := rng.Perm(n)
	root := int64(order[0])
	levels[root], parents[root] = 0, root
	reached := []int64{root}
	for _, v := range order[1:] {
		if rng.Intn(10) == 0 {
			levels[v], parents[v] = -1, -1
			continue
		}
		p := reached[rng.Intn(len(reached))]
		levels[v], parents[v] = levels[p]+1, p
		reached = append(reached, int64(v))
	}
	return levels, parents
}

// TestInvalidatedMatchesChildIndex holds the parent-chain walk to the child
// index it replaced, on random trees and deltas: tree edges and non-tree
// pairs deleted in both orientations, deletes at unreached vertices and at the
// root, one delete and many.
func TestInvalidatedMatchesChildIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		levels, parents := randomTree(rng, n)
		b := &Batch{}
		for i := rng.Intn(1 + n/4); i >= 0; i-- {
			u := int64(rng.Intn(n))
			v := parents[u]
			if v < 0 || v == u || rng.Intn(3) == 0 {
				v = int64(rng.Intn(n))
			}
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			b.Deletes = append(b.Deletes, graph.Edge{U: u, V: v})
		}
		got, want := Invalidated(levels, parents, b), referenceInvalidated(levels, parents, b)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, %d deletes): the walk marks %v, the child index %v", trial, n, len(b.Deletes), got, want)
		}
	}
}

// BenchmarkInvalidated times Invalidated ("walk") beside the child index it
// replaced ("child-index") on the rmat16-mutable workload's input: RMAT scale
// 16, the BFS tree of its highest-degree vertex with min-id parents, and a
// 0.1 % mixed delta.
func BenchmarkInvalidated(b *testing.B) {
	el := rmat.Generate(rmat.DefaultParams(16))
	csr := graph.BuildCSR(el)
	deg := el.OutDegrees()
	source := int64(slices.Index(deg, slices.Max(deg)))
	levels, parents := minParentBFS(csr, source)
	batch := Synthesize(el, 0.001, KindMixed, 1)
	want := referenceInvalidated(levels, parents, batch)
	for _, tc := range []struct {
		name string
		f    func([]int32, []int64, *Batch) []bool
	}{{"walk", Invalidated}, {"child-index", referenceInvalidated}} {
		b.Run(tc.name, func(b *testing.B) {
			var got []bool
			for i := 0; i < b.N; i++ {
				got = tc.f(levels, parents, batch)
			}
			if !slices.Equal(got, want) {
				b.Fatal("the masks differ")
			}
		})
	}
}

// minParentBFS is a serial BFS whose parent is each vertex's smallest-id
// neighbor one level up, the canonical tree a repair's prior carries.
func minParentBFS(c *graph.CSR, source int64) (levels []int32, parents []int64) {
	levels, parents = make([]int32, c.N), make([]int64, c.N)
	for v := range levels {
		levels[v], parents[v] = -1, -1
	}
	levels[source], parents[source] = 0, source
	front := []int64{source}
	for len(front) > 0 {
		var next []int64
		for _, u := range front {
			for _, v := range c.Neighbors(u) {
				if levels[v] < 0 {
					levels[v] = levels[u] + 1
					next = append(next, v)
				}
				if levels[v] == levels[u]+1 && (parents[v] < 0 || u < parents[v]) {
					parents[v] = u
				}
			}
		}
		front = next
	}
	return levels, parents
}
