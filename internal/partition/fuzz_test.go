package partition

import (
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/graph"
)

// fuzzGraph reads an undirected multigraph over n vertices from bytes: each
// byte pair is one edge {u mod n, v mod n}, both directions stored. Pairs may
// repeat and u may equal v, so parallel edges and self-loops come for free.
func fuzzGraph(n int64, pairs []byte) *graph.EdgeList {
	el := graph.NewEdgeList(n)
	for i := 0; i+1 < len(pairs); i += 2 {
		u, v := int64(pairs[i])%n, int64(pairs[i+1])%n
		el.Add(u, v)
		el.Add(v, u)
	}
	return el
}

// fuzzBatch reads a batch from bytes: each byte triple is (kind, u, v), an
// insert when kind is even and a delete when odd.
func fuzzBatch(n int64, triples []byte) *delta.Batch {
	b := &delta.Batch{}
	for i := 0; i+2 < len(triples); i += 3 {
		e := graph.Edge{U: int64(triples[i+1]) % n, V: int64(triples[i+2]) % n}
		if triples[i]%2 == 0 {
			b.Inserts = append(b.Inserts, e)
		} else {
			b.Deletes = append(b.Deletes, e)
		}
	}
	return b
}

// FuzzDistributeIncremental advances a small random graph by one batch and
// holds the three builds of the new epoch to each other: DistributeIncremental
// against the old epoch ≡ a cold Distribute ≡ referenceDistribute, byte for
// byte. Sharing must be exact in both directions: a GPU counted as shared is
// prev's own *GPUGraph, and — while the delegate set holds, the only time
// sharing is possible — a GPU that was rebuilt really differs from prev's.
//
// The committed corpus (testdata/fuzz) has, among others, a batch that
// pushes a vertex over the threshold and one that leaves every degree on its
// side of it.
func FuzzDistributeIncremental(f *testing.F) {
	f.Fuzz(func(t *testing.T, pairs, triples []byte, nb, ranks, gpus, thb uint8) {
		n := int64(nb)%64 + 1
		cfg := Config{Ranks: int(ranks)%5 + 1, GPUsPerRank: int(gpus)%3 + 1}
		th := int64(thb) % 8
		el := fuzzGraph(n, pairs)
		next, err := delta.Apply(el, fuzzBatch(n, triples))
		if err != nil {
			t.Skip("batch does not apply to this graph")
		}

		sep := Separate(el, th)
		prev, err := Distribute(el, sep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nextSep := Separate(next, th)
		inc, shared, err := DistributeIncremental(next, nextSep, cfg, prev)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Distribute(next, nextSep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceDistribute(next, nextSep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		equalSubgraphs(t, cold, want)
		equalSubgraphs(t, inc, want)

		same := SameDelegates(sep, nextSep)
		pointerShared := 0
		for i, g := range inc.GPUs {
			switch {
			case g == prev.GPUs[i]:
				pointerShared++
			case same && diffGPUGraph(g, prev.GPUs[i]) == "":
				t.Fatalf("gpu %d is unchanged from the previous epoch but was rebuilt", i)
			}
		}
		if pointerShared != shared {
			t.Fatalf("%d GPUs are prev's own, %d reported shared", pointerShared, shared)
		}
		if !same && shared != 0 {
			t.Fatalf("shared %d GPUs across a delegate-set change", shared)
		}
	})
}
