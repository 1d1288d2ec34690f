// Package graph provides the shared graph core: directed edge lists,
// compressed sparse row (CSR) adjacency, degree statistics, symmetrization
// by edge doubling, and the deterministic vertex-permutation hash required
// by the Graph500 reporting rules (paper §VI-A3).
//
// Global vertex ids are int64 throughout, matching the paper's use of 64-bit
// global ids; partitioned subgraphs narrow them to 32 bits locally
// (see internal/partition), which is where the memory savings of Table I
// come from.
package graph

import (
	"fmt"
	"runtime"
	"sync"
)

// Edge is one directed edge u → v in global vertex numbering.
type Edge struct {
	U, V int64
}

// EdgeList is a directed multigraph over vertices [0, N).
// It is the interchange format between generators, the edge distributor and
// the baselines — the "conventional edge list representation" whose 16m-byte
// footprint Table I compares against (8 bytes per endpoint).
type EdgeList struct {
	N     int64 // number of vertices
	Edges []Edge
}

// NewEdgeList returns an empty edge list over n vertices.
func NewEdgeList(n int64) *EdgeList {
	return &EdgeList{N: n}
}

// M returns the number of directed edges.
func (el *EdgeList) M() int64 { return int64(len(el.Edges)) }

// Add appends the directed edge u → v.
func (el *EdgeList) Add(u, v int64) {
	el.Edges = append(el.Edges, Edge{u, v})
}

// BuildWorkers is the goroutine count of the data-parallel passes over an
// edge list (generation, distribution, delta compaction): one per CPU, at
// most 8 — the passes are memory-bound well before that.
func BuildWorkers() int {
	return min(runtime.GOMAXPROCS(0), 8)
}

// ForChunks cuts [0, n) into workers contiguous chunks, runs fn(w, lo, hi)
// for chunk w on a goroutine of its own, and returns when all have.
func ForChunks(n, workers int, fn func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, n*w/workers, n*(w+1)/workers)
		}()
	}
	wg.Wait()
}

// Validate checks that every endpoint lies in [0, N).
func (el *EdgeList) Validate() error {
	for i, e := range el.Edges {
		if e.U < 0 || e.U >= el.N || e.V < 0 || e.V >= el.N {
			return el.rangeError(i)
		}
	}
	return nil
}

// rangeError names edge i as having an endpoint outside [0, N).
func (el *EdgeList) rangeError(i int) error {
	e := el.Edges[i]
	return fmt.Errorf("graph: edge %d (%d→%d) out of range [0,%d)", i, e.U, e.V, el.N)
}

// Symmetrize returns a new edge list with every edge doubled (u→v and v→u),
// the paper's preparation step for undirected inputs ("we make an edge pair
// of opposite directions for an undirected edge"). Self-loops are doubled
// too: Graph500 permits self-loops and they are harmless to BFS.
func (el *EdgeList) Symmetrize() *EdgeList {
	out := &EdgeList{N: el.N, Edges: make([]Edge, 0, 2*len(el.Edges))}
	for _, e := range el.Edges {
		out.Edges = append(out.Edges, e, Edge{e.V, e.U})
	}
	return out
}

// CheckedOutDegrees is Validate and OutDegrees in the one pass over the edges
// that either needs: a service's set-up runs both, and each is a serial walk
// of the whole edge list.
func (el *EdgeList) CheckedOutDegrees() ([]int64, error) {
	deg := make([]int64, el.N)
	n := uint64(el.N)
	for i, e := range el.Edges {
		if uint64(e.U) >= n || uint64(e.V) >= n {
			return nil, el.rangeError(i)
		}
		deg[e.U]++
	}
	return deg, nil
}

// OutDegrees counts the out-degree of every vertex.
func (el *EdgeList) OutDegrees() []int64 {
	deg := make([]int64, el.N)
	for _, e := range el.Edges {
		deg[e.U]++
	}
	return deg
}

// CSR is compressed-sparse-row adjacency over global 64-bit vertex ids: the
// "standard graph representation" the paper deliberately keeps (§II-D) so
// BFS can sit inside larger workflows without format conversion.
type CSR struct {
	N          int64
	RowOffsets []int64 // len N+1
	Cols       []int64 // len M
}

// BuildCSR converts an edge list into CSR form using a counting sort on the
// source vertex; neighbor order within a row follows the edge list order.
func BuildCSR(el *EdgeList) *CSR {
	n := el.N
	offsets := make([]int64, n+1)
	for _, e := range el.Edges {
		offsets[e.U+1]++
	}
	for i := int64(0); i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	cols := make([]int64, len(el.Edges))
	cursor := make([]int64, n)
	for _, e := range el.Edges {
		cols[offsets[e.U]+cursor[e.U]] = e.V
		cursor[e.U]++
	}
	return &CSR{N: n, RowOffsets: offsets, Cols: cols}
}

// Neighbors returns the (shared, read-only) adjacency slice of u.
func (c *CSR) Neighbors(u int64) []int64 {
	return c.Cols[c.RowOffsets[u]:c.RowOffsets[u+1]]
}
