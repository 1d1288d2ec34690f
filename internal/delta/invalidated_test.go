package delta

import (
	"math/rand"
	"slices"
	"testing"

	"gcbfs/internal/graph"
	"gcbfs/internal/partition"
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

// rowsCase draws one input of the row walk: a symmetric graph on n vertices
// with parallel copies of some pairs and a component the source does not
// reach, its min-id BFS tree, a batch that deletes tree edges (named in either
// orientation), non-tree edges, an edge at the root and one between unreached
// vertices and inserts new pairs, and the new epoch distributed on shape cfg
// at threshold th.
func rowsCase(rng *rand.Rand, n int, cfg partition.Config, th int64) (levels []int32, parents []int64, b *Batch, sg *partition.Subgraphs, err error) {
	reach := 1 + rng.Intn(n)
	el := &graph.EdgeList{N: int64(n)}
	edge := map[graph.Edge]bool{}
	var pairs []graph.Edge
	addPair := func(u, v int) {
		e := canon(graph.Edge{U: int64(u), V: int64(v)})
		if e.U == e.V {
			return
		}
		for copies := 1 + rng.Intn(2)*rng.Intn(3); copies > 0; copies-- {
			el.Edges = append(el.Edges, e, graph.Edge{U: e.V, V: e.U})
		}
		if !edge[e] {
			edge[e] = true
			pairs = append(pairs, e)
		}
	}
	for i := rng.Intn(3 * n); i >= 0; i-- {
		if lo, hi := 0, reach; rng.Intn(4) > 0 || reach == n {
			addPair(lo+rng.Intn(hi-lo), lo+rng.Intn(hi-lo))
		} else {
			addPair(reach+rng.Intn(n-reach), reach+rng.Intn(n-reach))
		}
	}
	source := int64(rng.Intn(reach))
	levels, parents = minParentBFS(graph.BuildCSR(el), source)

	b = &Batch{}
	used := map[graph.Edge]bool{}
	del := func(e graph.Edge) {
		if c := canon(e); edge[c] && !used[c] {
			used[c] = true
			b.Deletes = append(b.Deletes, e)
		}
	}
	for i := rng.Intn(1 + len(pairs)/4); i >= 0 && len(pairs) > 0; i-- {
		switch e := pairs[rng.Intn(len(pairs))]; rng.Intn(4) {
		case 0: // a tree edge, either way round
			if v := rng.Intn(n); levels[v] >= 1 {
				e = graph.Edge{U: parents[v], V: int64(v)}
			}
			if rng.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			del(e)
		case 1: // at the root
			for _, e := range pairs {
				if e.U == source || e.V == source {
					del(e)
					break
				}
			}
		case 2: // between unreached vertices
			for _, e := range pairs {
				if levels[e.U] < 0 {
					del(e)
					break
				}
			}
		default:
			del(e)
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		e := canon(graph.Edge{U: int64(rng.Intn(n)), V: int64(rng.Intn(n))})
		if e.U != e.V && !edge[e] && !used[e] {
			used[e] = true
			b.Inserts = append(b.Inserts, e)
		}
	}
	el2, err := Apply(el, b)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sg, err = partition.Distribute(el2, partition.Separate(el2, th), cfg)
	return levels, parents, b, sg, err
}

// TestInvalidatedRowsMatchesChainWalk holds the row walk over a new epoch's
// partitioned rows to the parent-chain walk on random graphs and their min-id
// trees (rowsCase), on one rank, odd GPU counts and 1, 2 and 4 GPUs per rank,
// with and without delegates; the draws must take both the walk and its
// fallback.
func TestInvalidatedRowsMatchesChainWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfgs := []partition.Config{{Ranks: 1, GPUsPerRank: 1}, {Ranks: 1, GPUsPerRank: 4}, {Ranks: 3, GPUsPerRank: 1}, {Ranks: 3, GPUsPerRank: 2}, {Ranks: 2, GPUsPerRank: 4}}
	var walked, fellBack int
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(200)
		cfg, th := cfgs[trial%len(cfgs)], []int64{1 << 40, 0, 3}[trial%3]
		levels, parents, b, sg, err := rowsCase(rng, n, cfg, th)
		if err != nil {
			t.Fatal(err)
		}
		got, chain := invalidatedRows(levels, parents, b, sg.Neighbors)
		if want := Invalidated(levels, parents, b); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, %d×%d, th %d, %d deletes, fallback %v): the rows mark %v, the chains %v",
				trial, n, cfg.Ranks, cfg.GPUsPerRank, th, len(b.Deletes), chain, got, want)
		}
		if chain {
			fellBack++
		} else if slices.Contains(got, true) {
			walked++
		}
	}
	if walked == 0 || fellBack == 0 {
		t.Fatalf("the draws invalidated by the rows %d times and fell back %d times, want both", walked, fellBack)
	}
}

// TestInvalidatedRowsFallsBack builds a subtree whose rows outnumber the
// vertices — the root's one edge leads to a hub beside every other vertex,
// which a path also joins — and requires the walk to stop there and answer
// with the chain walk's mask; a leaf's deleted tree edge stays on the rows.
func TestInvalidatedRowsFallsBack(t *testing.T) {
	const n = 40
	pairs := [][2]int64{{0, 1}}
	for v := int64(2); v < n; v++ {
		pairs = append(pairs, [2]int64{1, v})
		if v+1 < n {
			pairs = append(pairs, [2]int64{v, v + 1})
		}
	}
	el := &graph.EdgeList{N: n, Edges: undirected(pairs...)}
	levels, parents := minParentBFS(graph.BuildCSR(el), 0)
	for _, tc := range []struct {
		cut   graph.Edge
		chain bool
	}{{graph.Edge{U: 1, V: 0}, true}, {graph.Edge{U: 1, V: n - 1}, false}} {
		b := &Batch{Deletes: []graph.Edge{tc.cut}}
		el2, err := Apply(el, b)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := partition.Distribute(el2, partition.Separate(el2, 8), partition.Config{Ranks: 3, GPUsPerRank: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, chain := invalidatedRows(levels, parents, b, sg.Neighbors)
		if want := Invalidated(levels, parents, b); !slices.Equal(got, want) || chain != tc.chain {
			t.Fatalf("cut %v: the rows mark %v (fallback %v), the chains %v (want fallback %v)", tc.cut, got, chain, want, tc.chain)
		}
	}
	if got := Invalidated(levels, parents, &Batch{Deletes: []graph.Edge{{U: 0, V: 1}}}); slices.Index(got, false) != 0 || slices.Contains(got[1:], false) {
		t.Fatalf("cutting the root's one edge voids %v, want every vertex but the root", got)
	}
}

// BenchmarkInvalidated times Invalidated ("walk") beside the child index it
// replaced ("child-index") and InvalidatedRows over the new epoch's
// subgraphs at 4×2×2 ("rows") on the rmat16-mutable workload's input: RMAT
// scale 16, the BFS tree of its highest-degree vertex with min-id parents,
// and a 0.1 % mixed delta.
func BenchmarkInvalidated(b *testing.B) {
	el := rmat.Generate(rmat.DefaultParams(16))
	csr := graph.BuildCSR(el)
	deg := el.OutDegrees()
	source := int64(slices.Index(deg, slices.Max(deg)))
	levels, parents := minParentBFS(csr, source)
	batch := Synthesize(el, 0.001, KindMixed, 1)
	want := referenceInvalidated(levels, parents, batch)
	el2, err := Apply(el, batch)
	if err != nil {
		b.Fatal(err)
	}
	cfg := partition.Config{Ranks: 8, GPUsPerRank: 2}
	th := partition.SuggestThreshold(deg, 4*el.N/int64(cfg.P())) // fixed on the first epoch, as a MutableService fixes it
	sg, err := partition.Distribute(el2, partition.Separate(el2, th), cfg)
	if err != nil {
		b.Fatal(err)
	}
	rows := func(levels []int32, parents []int64, batch *Batch) []bool {
		return InvalidatedRows(levels, parents, batch, sg.Neighbors)
	}
	for _, tc := range []struct {
		name string
		f    func([]int32, []int64, *Batch) []bool
	}{{"walk", Invalidated}, {"child-index", referenceInvalidated}, {"rows", rows}} {
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
