package delta

import (
	"slices"
	"testing"

	"gcbfs/internal/graph"
	"gcbfs/internal/rmat"
)

func undirected(pairs ...[2]int64) []graph.Edge {
	out := make([]graph.Edge, 0, 2*len(pairs))
	for _, p := range pairs {
		out = append(out, graph.Edge{U: p[0], V: p[1]}, graph.Edge{U: p[1], V: p[0]})
	}
	return out
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		b    Batch
	}{
		{"out of range", Batch{Inserts: []graph.Edge{{U: 0, V: 9}}}},
		{"negative", Batch{Deletes: []graph.Edge{{U: -1, V: 2}}}},
		{"self loop", Batch{Inserts: []graph.Edge{{U: 3, V: 3}}}},
		{"dup within inserts", Batch{Inserts: []graph.Edge{{U: 1, V: 2}, {U: 2, V: 1}}}},
		{"insert and delete same pair", Batch{
			Inserts: []graph.Edge{{U: 1, V: 2}},
			Deletes: []graph.Edge{{U: 2, V: 1}},
		}},
	}
	for _, tc := range cases {
		if err := tc.b.Validate(5); err == nil {
			t.Errorf("%s: Validate accepted invalid batch", tc.name)
		}
	}
	ok := Batch{Inserts: []graph.Edge{{U: 0, V: 1}}, Deletes: []graph.Edge{{U: 2, V: 3}}}
	if err := ok.Validate(5); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

func TestApply(t *testing.T) {
	// Path 0-1-2-3 plus chord 1-3.
	el := &graph.EdgeList{N: 4, Edges: undirected([2]int64{0, 1}, [2]int64{1, 2}, [2]int64{2, 3}, [2]int64{1, 3})}
	out, err := Apply(el, &Batch{
		Deletes: []graph.Edge{{U: 3, V: 1}}, // reversed orientation on purpose
		Inserts: []graph.Edge{{U: 0, V: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := append(undirected([2]int64{0, 1}, [2]int64{1, 2}, [2]int64{2, 3}), undirected([2]int64{0, 3})...)
	if len(out.Edges) != len(want) {
		t.Fatalf("got %d edges, want %d", len(out.Edges), len(want))
	}
	for i, e := range want {
		if out.Edges[i] != e {
			t.Fatalf("edge %d: got %v want %v (stable compaction violated)", i, out.Edges[i], e)
		}
	}
	// Input untouched.
	if len(el.Edges) != 8 {
		t.Fatalf("input edge list mutated: %d edges", len(el.Edges))
	}

	if _, err := Apply(el, &Batch{Deletes: []graph.Edge{{U: 0, V: 2}}}); err == nil {
		t.Fatal("deleting a missing edge did not error")
	}
}

func TestApplyRemovesParallelCopies(t *testing.T) {
	el := &graph.EdgeList{N: 3, Edges: append(undirected([2]int64{0, 1}), undirected([2]int64{0, 1}, [2]int64{1, 2})...)}
	out, err := Apply(el, &Batch{Deletes: []graph.Edge{{U: 0, V: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range out.Edges {
		if (e.U == 0 && e.V == 1) || (e.U == 1 && e.V == 0) {
			t.Fatalf("parallel copy of deleted edge survived: %v", e)
		}
	}
	if len(out.Edges) != 2 {
		t.Fatalf("got %d surviving edges, want 2", len(out.Edges))
	}
}

func TestAffected(t *testing.T) {
	// Path 0-1-2-3-4 with a chord 1-3, vertex 5 hanging off 4 and vertex 6
	// unreached. Levels 0:0 1:1 2:2 3:2 4:3 5:4; tree parent(2)=parent(3)=1,
	// parent(4)=3, parent(5)=4.
	levels := []int32{0, 1, 2, 2, 3, 4, -1}
	parents := []int64{0, 0, 1, 1, 3, 4, -1}

	// Deleting tree edge {1,3} orphans 3 and its subtree {4, 5}; 0, 1, 2 and
	// the unreached 6 stay valid. Of the inserts, {0,2} shortens 2's path
	// (0+1 < 2) and seeds 0; {1,2} shortens nothing (1+1 = 2) and seeds
	// neither end; {2,6} reaches the unreached 6 and seeds 2; {0,4} has an
	// invalidated far end, which the probe re-levels from its own row, and
	// seeds nothing.
	invalid, seeds := Affected(levels, parents, &Batch{
		Deletes: []graph.Edge{{U: 1, V: 3}},
		Inserts: []graph.Edge{{U: 0, V: 2}, {U: 2, V: 1}, {U: 6, V: 2}, {U: 0, V: 4}},
	})
	wantInvalid := []bool{false, false, false, true, true, true, false}
	for v, w := range wantInvalid {
		if invalid[v] != w {
			t.Errorf("invalid[%d] = %v, want %v", v, invalid[v], w)
		}
	}
	if !slices.Equal(seeds, []int64{0, 2}) {
		t.Fatalf("seeds = %v, want [0 2]", seeds)
	}

	// One case at a time: each insert seeds exactly its near end or nothing.
	for _, tc := range []struct {
		name string
		e    graph.Edge
		want []int64
	}{
		{"improving insert", graph.Edge{U: 4, V: 0}, []int64{0}},
		{"non-improving insert", graph.Edge{U: 2, V: 3}, nil},
		{"unreached far endpoint", graph.Edge{U: 6, V: 5}, []int64{5}},
		{"invalid far endpoint", graph.Edge{U: 0, V: 5}, nil},
	} {
		b := &Batch{Inserts: []graph.Edge{tc.e}}
		if tc.name == "invalid far endpoint" {
			b.Deletes = []graph.Edge{{U: 4, V: 5}}
		}
		invalid, seeds := Affected(levels, parents, b)
		if !slices.Equal(seeds, tc.want) {
			t.Errorf("%s %v: seeds %v, want %v (invalid %v)", tc.name, tc.e, seeds, tc.want, invalid)
		}
	}

	// Deleting a non-tree edge invalidates nothing.
	invalid, seeds = Affected(levels, parents, &Batch{Deletes: []graph.Edge{{U: 2, V: 3}}})
	for v := range invalid {
		if invalid[v] {
			t.Errorf("non-tree delete invalidated %d", v)
		}
	}
	if len(seeds) != 0 {
		t.Fatalf("unexpected seeds %v", seeds)
	}
}

func TestSynthesizeDeterministicAndApplies(t *testing.T) {
	el := rmat.Generate(rmat.Params{Scale: 10, EdgeFactor: 8, Seed: 42, Permute: true, Symmetric: true})
	for _, kind := range []Kind{KindInsert, KindDelete, KindMixed} {
		a := Synthesize(el, 0.01, kind, 7)
		b := Synthesize(el, 0.01, kind, 7)
		if len(a.Inserts) != len(b.Inserts) || len(a.Deletes) != len(b.Deletes) {
			t.Fatalf("%v: non-deterministic sizes", kind)
		}
		for i := range a.Inserts {
			if a.Inserts[i] != b.Inserts[i] {
				t.Fatalf("%v: non-deterministic insert %d", kind, i)
			}
		}
		for i := range a.Deletes {
			if a.Deletes[i] != b.Deletes[i] {
				t.Fatalf("%v: non-deterministic delete %d", kind, i)
			}
		}
		if err := a.Validate(el.N); err != nil {
			t.Fatalf("%v: synthesized batch invalid: %v", kind, err)
		}
		if _, err := Apply(el, a); err != nil {
			t.Fatalf("%v: synthesized batch does not apply: %v", kind, err)
		}
	}
}
