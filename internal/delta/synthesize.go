package delta

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"gcbfs/internal/graph"
)

// Kind selects the mutation mix a synthesized batch carries.
type Kind int

const (
	KindInsert Kind = iota // inserts only
	KindDelete             // deletes only
	KindMixed              // half deletes, half inserts
)

func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindMixed:
		return "mixed"
	}
	return "??"
}

// ParseKind parses the -updatekind spellings.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "insert":
		return KindInsert, nil
	case "delete":
		return KindDelete, nil
	case "mixed":
		return KindMixed, nil
	}
	return 0, fmt.Errorf("delta: unknown kind %q (want insert, delete or mixed)", s)
}

// Synthesize builds a deterministic batch mutating ~frac of the graph's
// undirected edges: deletes sample existing undirected pairs without
// replacement; inserts draw fresh non-self pairs absent from both the graph
// and the batch. The same (graph, frac, kind, seed) always yields the same
// batch — ablations and CI replay steps depend on that.
func Synthesize(el *graph.EdgeList, frac float64, kind Kind, seed uint64) *Batch {
	pairs, sorted := distinctPairs(el.Edges)
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

	// Partial Fisher–Yates over the canonical pair list: the first `deletes`
	// entries after shuffling are the sampled deletions.
	for i := 0; i < deletes; i++ {
		j := i + rng.Intn(len(pairs)-i)
		pairs[i], pairs[j] = pairs[j], pairs[i]
		b.Deletes = append(b.Deletes, pairs[i])
	}

	// An insert is looked up in the graph's sorted pairs; only the batch's
	// own inserts keep a set.
	drawn := make(map[graph.Edge]struct{}, inserts)
	for attempts := 0; len(b.Inserts) < inserts && attempts < 100*inserts+1000; attempts++ {
		u := rng.Int63n(el.N)
		v := rng.Int63n(el.N)
		if u == v {
			continue
		}
		c := canon(graph.Edge{U: u, V: v})
		if has(sorted, c) {
			continue
		}
		if _, ok := drawn[c]; ok {
			continue
		}
		drawn[c] = struct{}{}
		b.Inserts = append(b.Inserts, c)
	}
	return b
}

// occurrence is an edge's canonical pair and the edge's index in its list.
type occurrence struct {
	e graph.Edge
	i int
}

// distinctPairs returns the distinct undirected pairs of the non-self edges,
// canonical, in order of first occurrence — the order the delete sample
// shuffles — and every non-self edge's occurrence sorted by pair. A stable
// radix sort by (U, V), a byte at a time from V's lowest through the highest
// byte any endpoint sets, keeps equal pairs in edge order, so each run of
// them starts at the pair's first occurrence.
func distinctPairs(edges []graph.Edge) (listed []graph.Edge, sorted []occurrence) {
	sorted = make([]occurrence, 0, len(edges))
	var orU, orV uint64
	for i, e := range edges {
		if e.U != e.V {
			c := canon(e)
			sorted = append(sorted, occurrence{c, i})
			orU, orV = orU|uint64(c.U), orV|uint64(c.V)
		}
	}
	tmp := make([]occurrence, len(sorted))
	vBytes, uBytes := (bits.Len64(orV)+7)/8, (bits.Len64(orU)+7)/8
	for d := range 16 {
		if d >= vBytes && d < 8 || d >= 8+uBytes {
			continue // a byte no pair sets
		}
		var at [256]int
		for _, o := range sorted {
			at[pairByte(o.e, d)]++
		}
		n := 0
		for k, c := range at {
			at[k], n = n, n+c
		}
		for _, o := range sorted {
			k := pairByte(o.e, d)
			tmp[at[k]] = o
			at[k]++
		}
		sorted, tmp = tmp, sorted
	}
	first := make([]bool, len(edges))
	n := 0
	for k, o := range sorted {
		if k == 0 || o.e != sorted[k-1].e {
			first[o.i] = true
			n++
		}
	}
	listed = make([]graph.Edge, 0, n)
	for i, e := range edges {
		if first[i] {
			listed = append(listed, canon(e))
		}
	}
	return listed, sorted
}

// pairByte is byte d of a pair's radix key: V's bytes from its lowest, then
// U's.
func pairByte(e graph.Edge, d int) byte {
	if d < 8 {
		return byte(e.V >> (8 * d))
	}
	return byte(e.U >> (8 * (d - 8)))
}

// has reports whether the sorted occurrences hold pair c.
func has(sorted []occurrence, c graph.Edge) bool {
	_, ok := slices.BinarySearchFunc(sorted, c, func(o occurrence, c graph.Edge) int {
		if d := cmp.Compare(o.e.U, c.U); d != 0 {
			return d
		}
		return cmp.Compare(o.e.V, c.V)
	})
	return ok
}
