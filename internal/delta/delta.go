// Package delta models batched mutations of an undirected graph — the
// streaming-update substrate of ROADMAP item 4. A Batch is one atomic set of
// undirected edge inserts and deletes; Apply produces the next epoch's edge
// list by stable compaction (surviving directed edges keep their relative
// order, so per-GPU CSRs of untouched partitions rebuild byte-identically —
// see partition.DistributeIncremental); Invalidated derives, from a prior
// canonical BFS result, which vertices a delta's deletes void — the input of
// core.Plan.Repair's corrective traversal.
//
// The package sits below core: it knows edge lists and BFS trees, nothing
// about partitions, sessions or epochs.
package delta

import (
	"fmt"
	"slices"

	"gcbfs/internal/graph"
)

// Batch is one atomic set of undirected edge mutations. Each entry names an
// undirected pair {U, V}; Apply materializes both directed orientations, the
// same convention gcbfs.Graph.AddUndirectedEdge uses. A pair may appear at
// most once across the whole batch (inserting and deleting the same edge in
// one batch is rejected as ambiguous).
type Batch struct {
	Inserts []graph.Edge
	Deletes []graph.Edge
}

// Empty reports whether the batch mutates nothing.
func (b *Batch) Empty() bool {
	return b == nil || (len(b.Inserts) == 0 && len(b.Deletes) == 0)
}

// Size returns the number of undirected mutations in the batch.
func (b *Batch) Size() int {
	if b == nil {
		return 0
	}
	return len(b.Inserts) + len(b.Deletes)
}

// canon returns the canonical (min, max) orientation of an undirected pair.
func canon(e graph.Edge) graph.Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Validate checks the batch against a graph of n vertices: endpoints in
// range, no self loops, and no undirected pair repeated anywhere in the
// batch.
func (b *Batch) Validate(n int64) error {
	if b == nil {
		return nil
	}
	seen := make(map[graph.Edge]struct{}, len(b.Inserts)+len(b.Deletes))
	check := func(kind string, edges []graph.Edge) error {
		for _, e := range edges {
			if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
				return fmt.Errorf("delta: %s {%d,%d} out of range [0,%d)", kind, e.U, e.V, n)
			}
			if e.U == e.V {
				return fmt.Errorf("delta: %s {%d,%d} is a self loop", kind, e.U, e.V)
			}
			c := canon(e)
			if _, dup := seen[c]; dup {
				return fmt.Errorf("delta: pair {%d,%d} appears twice in the batch", c.U, c.V)
			}
			seen[c] = struct{}{}
		}
		return nil
	}
	if err := check("insert", b.Inserts); err != nil {
		return err
	}
	return check("delete", b.Deletes)
}

// Apply returns the next epoch's edge list: every directed copy of each
// deleted undirected pair is removed (parallel copies included), then both
// orientations of each insert are appended. The compaction is stable —
// surviving directed edges keep their relative order — which is what lets
// the incremental distributor share the GPUs whose routed edge sequence did
// not change. The input edge list is never modified. Deleting a pair the
// graph does not contain is an error.
//
// A surviving edge costs two byte loads, not a map probe: the delete map is
// consulted only for an edge whose endpoints are both endpoints of some
// delete. The scan and the copy each run on graph.BuildWorkers() chunks of
// the list; the output does not depend on how it is cut.
func Apply(el *graph.EdgeList, b *Batch) (*graph.EdgeList, error) {
	return apply(el, b, graph.BuildWorkers())
}

func apply(el *graph.EdgeList, b *Batch, workers int) (*graph.EdgeList, error) {
	if err := b.Validate(el.N); err != nil {
		return nil, err
	}
	if b.Empty() {
		return &graph.EdgeList{N: el.N, Edges: append([]graph.Edge(nil), el.Edges...)}, nil
	}
	// del maps both directed copies of a deleted pair to its index in
	// b.Deletes; marked holds the endpoints.
	del := make(map[graph.Edge]int, 2*len(b.Deletes))
	marked := make([]bool, el.N)
	for i, e := range b.Deletes {
		del[e] = i
		del[graph.Edge{U: e.V, V: e.U}] = i
		marked[e.U], marked[e.V] = true, true
	}

	// Scan: each worker lists the edges of its chunk that go.
	drops := make([][]int, workers)
	n := uint64(el.N)
	graph.ForChunks(len(el.Edges), workers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := el.Edges[i]
			if uint64(e.U) < n && uint64(e.V) < n && marked[e.U] && marked[e.V] {
				if _, drop := del[e]; drop {
					drops[w] = append(drops[w], i)
				}
			}
		}
	})
	dropped := 0
	found := make([]bool, len(b.Deletes))
	for _, ds := range drops {
		dropped += len(ds)
		for _, i := range ds {
			found[del[el.Edges[i]]] = true
		}
	}
	for i, ok := range found {
		if !ok {
			return nil, fmt.Errorf("delta: delete {%d,%d} not present in graph", b.Deletes[i].U, b.Deletes[i].V)
		}
	}

	// Copy: the runs between dropped edges, each chunk to where the drops
	// of the chunks before it put it.
	kept := len(el.Edges) - dropped
	out := &graph.EdgeList{N: el.N, Edges: make([]graph.Edge, kept+2*len(b.Inserts))}
	graph.ForChunks(len(el.Edges), workers, func(w, lo, hi int) {
		dst := lo
		for _, ds := range drops[:w] {
			dst -= len(ds)
		}
		for _, i := range drops[w] {
			dst += copy(out.Edges[dst:], el.Edges[lo:i])
			lo = i + 1
		}
		copy(out.Edges[dst:], el.Edges[lo:hi])
	})
	for i, e := range b.Inserts {
		out.Edges[kept+2*i] = e
		out.Edges[kept+2*i+1] = graph.Edge{U: e.V, V: e.U}
	}
	return out, nil
}

// Invalidated marks, from a prior canonical BFS outcome (levels and the
// canonical min-parent tree, both over the OLD epoch) and the batch that
// advances it, every vertex whose prior level can no longer be trusted. A
// deleted edge {u,v} orphans v exactly when u is v's canonical tree parent
// (and vice versa); the orphan's entire tree subtree is invalidated. Every
// valid vertex keeps its whole parent chain — each chain edge survived and
// every ancestor is valid — so a path of its old length still exists and
// deletions cannot increase its distance. Invalidation may overshoot (a
// subtree vertex can have a surviving shortest path through a non-tree
// neighbor); the corrective traversal re-derives those at their unchanged
// level.
//
// A vertex is invalid exactly when its parent chain meets an orphan, so each
// reached vertex walks its chain up to the first vertex already decided — an
// orphan, the root, or one an earlier walk passed — and every vertex on the
// walk takes that vertex's verdict. Each vertex is walked once, and no child
// index is built.
//
// The wave's seeds are not derived here: InsertSeeds picks the inserts that
// shorten a path, and core.Plan.Repair's probe gives each invalidated vertex
// a tentative level from the valid neighbors it reads in the NEW epoch.
func Invalidated(levels []int32, parents []int64, b *Batch) (invalid []bool) {
	n := len(levels)
	invalid = make([]bool, n)

	// Orphan roots: deleted tree edges.
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

	// verdict is the walks' memo, one byte per vertex so that their random
	// reads stay in a cache-sized array: undecided until a walk passes the
	// vertex, the orphans void from the start. A walk also stops at the root
	// (level 0) and at unreached vertices, which are valid.
	const (
		undecided = iota
		valid
		void
	)
	verdict := make([]uint8, n)
	for _, v := range roots {
		verdict[v] = void
	}
	var path []int64
	for v := range verdict {
		if verdict[v] != undecided {
			continue
		}
		u := int64(v)
		for verdict[u] == undecided && levels[u] >= 1 {
			path = append(path, u)
			u = parents[u]
		}
		x := verdict[u]
		if x == undecided {
			x, verdict[u] = valid, valid
		}
		for _, w := range path {
			verdict[w], invalid[w] = x, x == void
		}
		path = path[:0]
	}
	return invalid
}

// InsertSeeds returns, in ascending order, the inserted edges' endpoints that
// start a repair's corrective wave: an insert {u,v} seeds u exactly when it
// shortens v's path — both endpoints still valid, u reached, and v unreached
// or more than one level below u (levels[u]+1 < levels[v]) — and v likewise.
// Any other insert lowers nothing by itself: an invalidated endpoint is
// re-levelled from its own row by the repair's probe, and an endpoint the wave
// lowers re-offers every edge of its row then. levels and invalid are the
// prior outcome's and Invalidated's; every endpoint must be in range.
func InsertSeeds(levels []int32, invalid []bool, inserts []graph.Edge) []int64 {
	var seeds []int64
	shortens := func(u, v int64) bool {
		lu, lv := levels[u], levels[v]
		return !invalid[u] && !invalid[v] && lu >= 0 && (lv < 0 || lu+1 < lv)
	}
	for _, e := range inserts {
		if shortens(e.U, e.V) {
			seeds = append(seeds, e.U)
		}
		if shortens(e.V, e.U) {
			seeds = append(seeds, e.V)
		}
	}
	slices.Sort(seeds)
	return slices.Compact(seeds)
}

// Affected derives the inputs of core.Plan.RunRepair: Invalidated's mask, and
// InsertSeeds, the endpoints of the inserts that shorten a path. Plan.Repair
// derives the same seeds from the inserts it is given.
func Affected(levels []int32, parents []int64, b *Batch) (invalid []bool, insertSeeds []int64) {
	invalid = Invalidated(levels, parents, b)
	return invalid, InsertSeeds(levels, invalid, b.Inserts)
}
