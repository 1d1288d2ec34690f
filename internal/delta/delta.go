// Package delta models batched mutations of an undirected graph — the
// streaming-update substrate of ROADMAP item 4. A Batch is one atomic set of
// undirected edge inserts and deletes; Apply produces the next epoch's edge
// list by stable compaction (surviving directed edges keep their relative
// order, so per-GPU CSRs of untouched partitions rebuild byte-identically —
// see partition.DistributeIncremental), and ApplyDegrees also carries the
// out-degrees across, so the next epoch's degree separation needs no pass
// over its edges.
//
// From a prior canonical BFS result, InvalidatedRows derives which vertices a
// delta's deletes void — the input of core.Plan.Repair's corrective traversal
// — by walking the orphaned subtrees down the NEW epoch's rows, at a cost in
// proportion to them. Invalidated derives the same mask from the parent
// chains alone, in O(n): it is InvalidatedRows' fallback once a subtree's
// rows outnumber the vertices, and its oracle. Affected (Invalidated plus
// InsertSeeds) serves the callers that hold no rows: the benchmark's traced
// pass and the cmp6 experiment, which feed core.Plan.RunRepair.
//
// The package sits below core: it knows edge lists and BFS trees, nothing
// about partitions, sessions or epochs — a new epoch's rows reach it as a
// neighbor iterator.
package delta

import (
	"fmt"
	"iter"
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
// A surviving edge costs one hash and one load from a bitset of a few KiB
// (deleteFilter); the delete map is consulted only on a filter hit, so the
// result is exact. The scan and the copy each run on graph.BuildWorkers()
// chunks of the list, and the output list is allocated on a goroutine of its
// own while the scan runs; the output does not depend on how the list is cut.
func Apply(el *graph.EdgeList, b *Batch) (*graph.EdgeList, error) {
	out, _, err := apply(el, b, nil, graph.BuildWorkers())
	return out, err
}

// ApplyDegrees is Apply for a caller that holds el's out-degrees (deg, one
// per vertex, as graph.EdgeList.OutDegrees counts them): it also returns the
// new list's, derived from deg rather than counted — minus one at the source
// of every dropped directed edge, plus one at each endpoint of every insert.
// deg is not modified.
func ApplyDegrees(el *graph.EdgeList, b *Batch, deg []int64) (*graph.EdgeList, []int64, error) {
	if int64(len(deg)) != el.N {
		return nil, nil, fmt.Errorf("delta: %d out-degrees for a graph of %d vertices", len(deg), el.N)
	}
	return apply(el, b, deg, graph.BuildWorkers())
}

// apply implements Apply and ApplyDegrees on the given number of workers; a
// nil deg derives no degrees.
func apply(el *graph.EdgeList, b *Batch, deg []int64, workers int) (*graph.EdgeList, []int64, error) {
	if err := b.Validate(el.N); err != nil {
		return nil, nil, err
	}
	if deg != nil {
		deg = slices.Clone(deg)
	}
	if b.Empty() {
		return &graph.EdgeList{N: el.N, Edges: append([]graph.Edge(nil), el.Edges...)}, deg, nil
	}
	// del maps both directed copies of a deleted pair to its index in
	// b.Deletes; filter holds the same copies.
	del := make(map[graph.Edge]int, 2*len(b.Deletes))
	filter := newDeleteFilter(2 * len(b.Deletes))
	for i, e := range b.Deletes {
		r := graph.Edge{U: e.V, V: e.U}
		del[e], del[r] = i, i
		filter.add(e)
		filter.add(r)
	}

	// The output is allocated beside the scan, at the size it has if nothing
	// drops: make zeroes all of it, for about as long as the scan takes, and
	// on the caller's goroutine the two would run one after the other. The
	// channel holds the one send, so the goroutine ends on its own when an
	// invalid delete returns before the copy receives it.
	alloc := make(chan []graph.Edge, 1)
	go func() { alloc <- make([]graph.Edge, len(el.Edges)+2*len(b.Inserts)) }()

	// Scan: each worker lists the edges of its chunk that go. The filter
	// hashes any endpoints, in range or not, and no out-of-range edge is in
	// del (Validate saw every delete).
	drops := make([][]int, workers)
	graph.ForChunks(len(el.Edges), workers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := el.Edges[i]
			if filter.has(e) {
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
			e := el.Edges[i]
			found[del[e]] = true
			if deg != nil {
				deg[e.U]--
			}
		}
	}
	for i, ok := range found {
		if !ok {
			return nil, nil, fmt.Errorf("delta: delete {%d,%d} not present in graph", b.Deletes[i].U, b.Deletes[i].V)
		}
	}

	// Copy: the runs between dropped edges, each chunk to where the drops
	// of the chunks before it put it.
	kept := len(el.Edges) - dropped
	out := &graph.EdgeList{N: el.N, Edges: (<-alloc)[:kept+2*len(b.Inserts)]}
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
	if deg != nil {
		for _, e := range b.Inserts {
			deg[e.U]++
			deg[e.V]++
		}
	}
	return out, deg, nil
}

// deleteFilter is a bitset with one hashed bit per directed edge added to
// it: a clear bit proves that an edge was not added, a set bit only that it
// may have been. Sized at 64 bits per edge (at most maxFilterBits), a kept
// edge hits by chance about once in 64 — and is then cleared by the delete
// map — while the whole filter of a 0.1 % mixed delta at RMAT 16 (454
// deletes, 908 directed copies) is 8 KiB and stays in the L1 cache. The
// per-edge test is a multiply, a shift and a load, with no data-dependent
// branch before it.
type deleteFilter struct {
	words []uint64
	shift uint // 64 − log2(bits): a slot is the top bits of the hash
}

const maxFilterBits = 1 << 24

func newDeleteFilter(edges int) deleteFilter {
	bits, shift := 64, uint(58)
	for bits < 64*edges && bits < maxFilterBits {
		bits, shift = 2*bits, shift-1
	}
	return deleteFilter{words: make([]uint64, bits/64), shift: shift}
}

// slot hashes a directed edge to one bit of the filter (multiplicative
// hashing: the top bits of a product mix every bit of both endpoints).
func (f deleteFilter) slot(e graph.Edge) uint64 {
	return ((uint64(e.U)*0x9e3779b97f4a7c15 ^ uint64(e.V)) * 0xbf58476d1ce4e5b9) >> f.shift
}

func (f deleteFilter) add(e graph.Edge) {
	s := f.slot(e)
	f.words[s>>6] |= 1 << (s & 63)
}

func (f deleteFilter) has(e graph.Edge) bool {
	s := f.slot(e)
	return f.words[s>>6]&(1<<(s&63)) != 0
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
// index is built; the walk costs O(n) whatever the delta. InvalidatedRows
// gives the same mask at the cost of the subtrees' rows, and falls back to
// this walk.
//
// The wave's seeds are not derived here: InsertSeeds picks the inserts that
// shorten a path, and core.Plan.Repair's probe gives each invalidated vertex
// a tentative level from the valid neighbors it reads in the NEW epoch.
func Invalidated(levels []int32, parents []int64, b *Batch) (invalid []bool) {
	invalid = make([]bool, len(levels))
	chainWalk(levels, parents, orphans(levels, parents, b, invalid), invalid)
	return invalid
}

// InvalidatedRows is Invalidated derived downward through the NEW epoch's
// rows: neighbors yields a vertex's out-neighbors after the batch (a
// partition.Subgraphs' Neighbors). From the orphans it walks the prior tree,
// a child of x being a neighbor w with parents[w] == x, so it reads the rows
// of the invalidated vertices and nothing else. A tree edge the batch deleted
// is missing from the rows, but its child is an orphan already, and every
// other tree edge survived; the mask is exactly Invalidated's. Once the walk
// has read more row entries than there are vertices, the chain walk is the
// cheaper one, and it returns that instead.
func InvalidatedRows(levels []int32, parents []int64, b *Batch, neighbors func(v int64) iter.Seq[int64]) []bool {
	invalid, _ := invalidatedRows(levels, parents, b, neighbors)
	return invalid
}

// invalidatedRows implements InvalidatedRows and reports whether it fell back
// to the chain walk.
func invalidatedRows(levels []int32, parents []int64, b *Batch, neighbors func(v int64) iter.Seq[int64]) (invalid []bool, chain bool) {
	n := len(levels)
	invalid = make([]bool, n)
	stack := orphans(levels, parents, b, invalid)
	for budget := n; len(stack) > 0; {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for w := range neighbors(x) {
			if budget--; budget < 0 {
				clear(invalid)
				chainWalk(levels, parents, orphans(levels, parents, b, invalid), invalid)
				return invalid, true
			}
			if parents[w] == x && !invalid[w] && levels[w] >= 1 {
				invalid[w] = true
				stack = append(stack, w)
			}
		}
	}
	return invalid, false
}

// orphans marks and returns the children of the batch's deleted tree edges.
func orphans(levels []int32, parents []int64, b *Batch, invalid []bool) (roots []int64) {
	n := int64(len(levels))
	orphan := func(child, lost int64) {
		if child < n && levels[child] >= 1 && parents[child] == lost && !invalid[child] {
			invalid[child] = true
			roots = append(roots, child)
		}
	}
	for _, e := range b.Deletes {
		orphan(e.V, e.U)
		orphan(e.U, e.V)
	}
	return roots
}

// chainWalk marks, past the orphans in roots (marked already), every vertex
// whose parent chain meets one.
func chainWalk(levels []int32, parents []int64, roots []int64, invalid []bool) {
	if len(roots) == 0 {
		return
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
	verdict := make([]uint8, len(levels))
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
