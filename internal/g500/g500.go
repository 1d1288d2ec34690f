// Package g500 adapts the Graph500 result-validation rules (§VI-A3) to the
// hop-distance output this implementation produces (the paper outputs
// hop-distances rather than the BFS tree, arguing the tree adds negligible
// cost). The checks mirror the spec's five validation rules, restated for
// distance arrays on symmetric graphs:
//
//  1. the source has distance 0;
//  2. every edge's endpoints differ by at most one level when both are
//     visited;
//  3. on a symmetric graph, a visited vertex's neighbor is always visited;
//  4. every visited non-source vertex has a parent edge (a neighbor exactly
//     one level closer);
//  5. vertices outside the source's component are unvisited (-1).
package g500

import (
	"fmt"

	"gcbfs/internal/graph"
)

// Validate checks a hop-distance array against the edge list. The graph must
// be symmetric (every undirected edge present in both directions), as the
// paper's system assumes.
func Validate(el *graph.EdgeList, source int64, levels []int32) error {
	if int64(len(levels)) != el.N {
		return fmt.Errorf("g500: levels length %d, graph has %d vertices", len(levels), el.N)
	}
	if source < 0 || source >= el.N {
		return fmt.Errorf("g500: source %d out of range", source)
	}
	// Rule 1.
	if levels[source] != 0 {
		return fmt.Errorf("g500: source level = %d, want 0", levels[source])
	}
	// Rules 2 and 3 over every directed edge.
	for _, e := range el.Edges {
		lu, lv := levels[e.U], levels[e.V]
		switch {
		case lu >= 0 && lv >= 0:
			if d := lu - lv; d > 1 || d < -1 {
				return fmt.Errorf("g500: edge %d→%d spans levels %d→%d", e.U, e.V, lu, lv)
			}
		case lu >= 0 && lv < 0:
			return fmt.Errorf("g500: visited %d (level %d) has unvisited neighbor %d", e.U, lu, e.V)
		case lu < 0 && lv >= 0:
			return fmt.Errorf("g500: unvisited %d has visited neighbor %d (level %d)", e.U, e.V, lv)
		}
	}
	// Rule 4: parent existence, via one adjacency pass.
	c := graph.BuildCSR(el)
	for u := int64(0); u < el.N; u++ {
		lu := levels[u]
		if lu <= 0 {
			continue
		}
		found := false
		for _, v := range c.Neighbors(u) {
			if levels[v] == lu-1 {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("g500: vertex %d at level %d has no parent", u, lu)
		}
	}
	// Rule 5: negative levels must be exactly -1 (no other sentinel).
	for v, l := range levels {
		if l < -1 {
			return fmt.Errorf("g500: vertex %d has invalid level %d", v, l)
		}
	}
	return nil
}

// CompareLevels checks two distance arrays for exact equality and returns
// the first mismatch.
func CompareLevels(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("g500: length mismatch %d vs %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("g500: vertex %d: got level %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// VisitedCount returns the number of reached vertices.
func VisitedCount(levels []int32) int64 {
	var c int64
	for _, l := range levels {
		if l >= 0 {
			c++
		}
	}
	return c
}
