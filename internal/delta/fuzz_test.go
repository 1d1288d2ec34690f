package delta

import (
	"fmt"
	"slices"
	"testing"

	"gcbfs/internal/graph"
	"gcbfs/internal/rmat"
)

// referenceApply is the oracle Apply is held to: the version this package
// shipped through PR 19, one map probe per edge on one goroutine. Test code
// only.
func referenceApply(el *graph.EdgeList, b *Batch) (*graph.EdgeList, error) {
	if err := b.Validate(el.N); err != nil {
		return nil, err
	}
	if b.Empty() {
		return &graph.EdgeList{N: el.N, Edges: append([]graph.Edge(nil), el.Edges...)}, nil
	}
	del := make(map[graph.Edge]bool, 2*len(b.Deletes))
	for _, e := range b.Deletes {
		del[graph.Edge{U: e.U, V: e.V}] = false
		del[graph.Edge{U: e.V, V: e.U}] = false
	}
	out := &graph.EdgeList{
		N:     el.N,
		Edges: make([]graph.Edge, 0, len(el.Edges)+2*len(b.Inserts)),
	}
	for _, e := range el.Edges {
		if _, drop := del[e]; drop {
			del[e] = true
			continue
		}
		out.Edges = append(out.Edges, e)
	}
	for _, e := range b.Deletes {
		if !del[graph.Edge{U: e.U, V: e.V}] && !del[graph.Edge{U: e.V, V: e.U}] {
			return nil, fmt.Errorf("delta: delete {%d,%d} not present in graph", e.U, e.V)
		}
	}
	for _, e := range b.Inserts {
		out.Edges = append(out.Edges, graph.Edge{U: e.U, V: e.V}, graph.Edge{U: e.V, V: e.U})
	}
	return out, nil
}

// TestApplyMatchesReference: the same edge list whatever the worker count,
// on a graph large enough that every chunk drops edges.
func TestApplyMatchesReference(t *testing.T) {
	el := rmat.Generate(rmat.Params{Scale: 11, EdgeFactor: 8, Seed: 4, Permute: true, Symmetric: true})
	b := Synthesize(el, 0.02, KindMixed, 9)
	want, err := referenceApply(el, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Edges) == len(el.Edges) || len(b.Deletes) == 0 {
		t.Fatal("test setup: the batch deletes nothing")
	}
	for _, workers := range []int{1, 2, 3, 7} {
		got, err := apply(el, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Edges, want.Edges) {
			t.Fatalf("%d workers: edge list differs from the reference", workers)
		}
	}
}

// FuzzApply holds Apply to referenceApply on arbitrary directed multigraphs
// and batches: the same verdict (out of range, self loop, repeated pair,
// delete not present, or none), the same edges in the same order, and the
// input edge list untouched. Endpoints are raw bytes over n ≤ 256 vertices,
// so out-of-range ones occur on both sides, in the graph as well as in the
// batch; the graph is directed, so a delete can find one orientation only.
func FuzzApply(f *testing.F) {
	f.Fuzz(func(t *testing.T, pairs, triples []byte, nb uint8) {
		el := graph.NewEdgeList(int64(nb) + 1)
		for i := 0; i+1 < len(pairs); i += 2 {
			el.Add(int64(pairs[i]), int64(pairs[i+1]))
		}
		b := &Batch{}
		for i := 0; i+2 < len(triples); i += 3 {
			e := graph.Edge{U: int64(triples[i+1]), V: int64(triples[i+2])}
			if triples[i]%2 == 0 {
				b.Inserts = append(b.Inserts, e)
			} else {
				b.Deletes = append(b.Deletes, e)
			}
		}
		before := slices.Clone(el.Edges)

		got, err := Apply(el, b)
		want, wantErr := referenceApply(el, b)
		if !slices.Equal(el.Edges, before) {
			t.Fatal("Apply modified its input edge list")
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("Apply: %v, reference: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if got.N != want.N || !slices.Equal(got.Edges, want.Edges) {
			t.Fatalf("Apply kept %d edges, reference %d, or in another order", len(got.Edges), len(want.Edges))
		}
	})
}
