package delta

import (
	"math/rand"
	"reflect"
	"testing"

	"gcbfs/internal/graph"
	"gcbfs/internal/rmat"
)

// referenceSynthesize is the oracle Synthesize is held to: the version this
// package shipped before the sorted pair array, which keeps every undirected
// pair of the graph in a map. Test code only.
func referenceSynthesize(el *graph.EdgeList, frac float64, kind Kind, seed uint64) *Batch {
	exists := make(map[graph.Edge]struct{}, len(el.Edges))
	pairs := make([]graph.Edge, 0, len(el.Edges)/2)
	for _, e := range el.Edges {
		if e.U == e.V {
			continue
		}
		c := canon(e)
		if _, ok := exists[c]; !ok {
			exists[c] = struct{}{}
			pairs = append(pairs, c)
		}
	}
	total := int(frac * float64(len(pairs)))
	if total < 1 {
		total = 1
	}
	deletes, inserts := 0, 0
	switch kind {
	case KindInsert:
		inserts = total
	case KindDelete:
		deletes = total
	case KindMixed:
		deletes = total / 2
		inserts = total - deletes
	}
	if deletes > len(pairs) {
		deletes = len(pairs)
	}

	rng := rand.New(rand.NewSource(int64(seed)))
	b := &Batch{}
	for i := 0; i < deletes; i++ {
		j := i + rng.Intn(len(pairs)-i)
		pairs[i], pairs[j] = pairs[j], pairs[i]
		b.Deletes = append(b.Deletes, pairs[i])
	}
	for attempts := 0; len(b.Inserts) < inserts && attempts < 100*inserts+1000; attempts++ {
		u := rng.Int63n(el.N)
		v := rng.Int63n(el.N)
		if u == v {
			continue
		}
		c := canon(graph.Edge{U: u, V: v})
		if _, ok := exists[c]; ok {
			continue
		}
		exists[c] = struct{}{}
		b.Inserts = append(b.Inserts, c)
	}
	return b
}

// Synthesize draws the batch the map-based version drew, bit for bit: the
// same deletes in the same order (first-occurrence pair order under the same
// shuffle) and the same inserts, on RMAT 10 and 12 for every kind and three
// seeds. The fractions include one that asks for more inserts than a small
// graph has free pairs near its draw budget, and a whole-graph delete.
func TestSynthesizeMatchesReference(t *testing.T) {
	for _, scale := range []int{10, 12} {
		el := rmat.Generate(rmat.DefaultParams(scale))
		for _, kind := range []Kind{KindInsert, KindDelete, KindMixed} {
			for _, frac := range []float64{0, 0.001, 0.05, 1} {
				for seed := uint64(1); seed <= 3; seed++ {
					got, want := Synthesize(el, frac, kind, seed), referenceSynthesize(el, frac, kind, seed)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("RMAT %d %s frac %g seed %d: %d deletes %d inserts, want %d and %d (or a different draw)",
							scale, kind, frac, seed, len(got.Deletes), len(got.Inserts), len(want.Deletes), len(want.Inserts))
					}
				}
			}
		}
	}
	// Self loops, repeats in both directions and an isolated vertex.
	el := &graph.EdgeList{N: 6, Edges: []graph.Edge{{U: 2, V: 1}, {U: 1, V: 2}, {U: 3, V: 3}, {U: 0, V: 4}, {U: 2, V: 1}, {U: 4, V: 0}, {U: 1, V: 4}}}
	for _, kind := range []Kind{KindInsert, KindDelete, KindMixed} {
		for seed := uint64(1); seed <= 3; seed++ {
			if got, want := Synthesize(el, 1, kind, seed), referenceSynthesize(el, 1, kind, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("small graph %s seed %d: %+v, want %+v", kind, seed, got, want)
			}
		}
	}
}

// BenchmarkSynthesize times one 0.1 % mixed delta drawn on the rmat16-mutable
// workload's graph (RMAT scale 16) by Synthesize ("sorted") beside the map
// over every undirected pair it replaced ("map").
func BenchmarkSynthesize(b *testing.B) {
	el := rmat.Generate(rmat.DefaultParams(16))
	want := referenceSynthesize(el, 0.001, KindMixed, 1)
	for _, tc := range []struct {
		name string
		f    func(*graph.EdgeList, float64, Kind, uint64) *Batch
	}{{"sorted", Synthesize}, {"map", referenceSynthesize}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var got *Batch
			for i := 0; i < b.N; i++ {
				got = tc.f(el, 0.001, KindMixed, 1)
			}
			if !reflect.DeepEqual(got, want) {
				b.Fatal("the batches differ")
			}
		})
	}
}
