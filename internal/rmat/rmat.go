// Package rmat implements the Graph500 RMAT graph generator used throughout
// the paper's evaluation (§VI-A3): Kronecker/RMAT recursion with parameters
// A, B, C, D = 0.57, 0.19, 0.19, 0.05 and edge factor 16, followed by
// deterministic vertex-number randomization and symmetrization by edge
// doubling.
//
// The generator is deterministic given (scale, edge factor, seed) and each
// edge is derived independently from a counter-based RNG, mirroring the
// paper's distributed generator: any contiguous range of edge indices can be
// produced by any worker with no shared state.
package rmat

import (
	"gcbfs/internal/graph"
)

// Params configures the generator. Zero-value fields fall back to the
// Graph500 defaults from DefaultParams.
type Params struct {
	Scale      int     // n = 2^Scale vertices
	EdgeFactor int64   // m = EdgeFactor * n directed edges before doubling
	A, B, C, D float64 // quadrant probabilities, must sum to 1
	Seed       uint64
	// Permute applies the deterministic vertex-id randomization after
	// generation (Graph500 requires it; tests may disable it to inspect
	// raw recursion output).
	Permute bool
	// Symmetric doubles every edge (u→v plus v→u), the paper's
	// preparation step for studying DOBFS without a global direction.
	Symmetric bool
}

// DefaultParams returns the Graph500 parameter set used by the paper for the
// given scale: edge factor 16, A,B,C,D = 0.57,0.19,0.19,0.05, permuted and
// symmetrized.
func DefaultParams(scale int) Params {
	return Params{
		Scale:      scale,
		EdgeFactor: 16,
		A:          0.57,
		B:          0.19,
		C:          0.19,
		D:          0.05,
		Seed:       0x47726170683530, // "Graph50"
		Permute:    true,
		Symmetric:  true,
	}
}

// NumVertices returns 2^Scale.
func (p Params) NumVertices() int64 { return int64(1) << uint(p.Scale) }

// NumDirectedEdges returns the number of generated directed edges before
// symmetrization.
func (p Params) NumDirectedEdges() int64 { return p.EdgeFactor * p.NumVertices() }

// counterRNG is a counter-based splitmix64: stateless, so edge i's random
// stream is reproducible in isolation.
type counterRNG struct {
	state uint64
}

func newCounterRNG(seed, counter uint64) counterRNG {
	// Mix seed and counter so nearby counters decorrelate.
	z := seed ^ (counter * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return counterRNG{state: z ^ (z >> 31)}
}

func (r *counterRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 in [0,1) with 53 bits of precision.
func (r *counterRNG) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// GenerateEdge produces the i-th directed RMAT edge (before permutation).
func GenerateEdge(p Params, i int64) graph.Edge {
	rng := newCounterRNG(p.Seed, uint64(i))
	var u, v int64
	for level := 0; level < p.Scale; level++ {
		r := rng.float()
		var du, dv int64
		switch {
		case r < p.A:
			du, dv = 0, 0
		case r < p.A+p.B:
			du, dv = 0, 1
		case r < p.A+p.B+p.C:
			du, dv = 1, 0
		default:
			du, dv = 1, 1
		}
		u = u<<1 | du
		v = v<<1 | dv
	}
	return graph.Edge{U: u, V: v}
}

// Generate materializes the full edge list. Generation parallelizes across
// available CPUs; output order is deterministic (edge i always lands at
// index i, with the symmetric partner at i + m when Symmetric is set).
func Generate(p Params) *graph.EdgeList {
	p = normalize(p)
	n := p.NumVertices()
	m := p.NumDirectedEdges()
	total := m
	if p.Symmetric {
		total = 2 * m
	}
	edges := make([]graph.Edge, total)

	graph.ForChunks(int(m), graph.BuildWorkers(), func(_, lo, hi int) {
		var perm *graph.Permutation
		if p.Permute {
			perm = graph.NewPermutation(n, p.Seed^0xa5a5a5a5)
		}
		for i := int64(lo); i < int64(hi); i++ {
			e := GenerateEdge(p, i)
			if perm != nil {
				e.U = perm.Map(e.U)
				e.V = perm.Map(e.V)
			}
			edges[i] = e
			if p.Symmetric {
				edges[m+i] = graph.Edge{U: e.V, V: e.U}
			}
		}
	})
	return &graph.EdgeList{N: n, Edges: edges}
}

func normalize(p Params) Params {
	if p.EdgeFactor == 0 {
		p.EdgeFactor = 16
	}
	if p.A == 0 && p.B == 0 && p.C == 0 && p.D == 0 {
		p.A, p.B, p.C, p.D = 0.57, 0.19, 0.19, 0.05
	}
	return p
}
