package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"gcbfs"
	"gcbfs/internal/baseline"
	"gcbfs/internal/delta"
	"gcbfs/internal/g500"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/rmat"
)

// Streams derived from the run seed; deltas use deltaStream+cycle.
const (
	graphStream  = 1
	sourceStream = 2
	deltaStream  = 1000
)

// derive splits the run seed into independent streams (splitmix64 finalizer).
func derive(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// inputs is everything a pass needs that is not the system under test: the
// graph twice (the façade keeps its edge list private; the layers and the
// checker take one directly, held as chk.el), and the reference answers.
type inputs struct {
	g   *gcbfs.Graph
	chk *checker
	// pool holds the distinct sources ops rotate through.
	pool []int64
	// genSeconds times the internal generator call alone; serial holds the
	// wall time of every reference BFS (baseline.serial_bfs_s_p50).
	genSeconds float64
	serial     []float64
}

// checker verifies answers against serial references on one graph epoch.
type checker struct {
	el  *graph.EdgeList
	csr *graph.CSR
	ref map[int64][]int32
}

func newChecker(el *graph.EdgeList) *checker {
	return &checker{el: el, csr: graph.BuildCSR(el), ref: map[int64][]int32{}}
}

// reference computes (once) and returns the serial levels of source,
// reporting the wall time of a fresh computation through timed.
func (c *checker) reference(source int64, timed *[]float64) []int32 {
	if lv, ok := c.ref[source]; ok {
		return lv
	}
	t0 := time.Now()
	lv := baseline.SerialBFS(c.csr, source)
	if timed != nil {
		*timed = append(*timed, time.Since(t0).Seconds())
	}
	c.ref[source] = lv
	return lv
}

// check compares an answer's levels with the reference and, when tree is
// set, its parents against the Graph500 tree rules.
func (c *checker) check(source int64, levels []int32, parents []int64, tree bool) error {
	if err := g500.CompareLevels(levels, c.reference(source, nil)); err != nil {
		return err
	}
	if tree {
		return c.checkTree(source, parents, levels)
	}
	return nil
}

// checkTree applies g500.ValidateTree's rules through the CSR. ValidateTree
// itself builds a hash set of every edge per call (seconds and hundreds of
// MB at scale 18); on a symmetric graph "p→v is an edge" is "p is in v's
// row", which costs one pass over the adjacency.
func (c *checker) checkTree(source int64, parents []int64, levels []int32) error {
	n := c.csr.N
	if int64(len(parents)) != n || int64(len(levels)) != n {
		return fmt.Errorf("tree arrays sized %d/%d, graph has %d vertices", len(parents), len(levels), n)
	}
	if parents[source] != source || levels[source] != 0 {
		return fmt.Errorf("source %d: parent %d level %d", source, parents[source], levels[source])
	}
	for v := int64(0); v < n; v++ {
		p := parents[v]
		switch {
		case levels[v] < 0:
			if p != -1 {
				return fmt.Errorf("unvisited vertex %d has parent %d", v, p)
			}
			continue
		case v == source:
			continue
		case p < 0 || p >= n:
			return fmt.Errorf("vertex %d has invalid parent %d", v, p)
		case levels[p] != levels[v]-1:
			return fmt.Errorf("vertex %d (level %d) has parent %d at level %d", v, levels[v], p, levels[p])
		}
		if !slices.Contains(c.csr.Neighbors(v), p) {
			return fmt.Errorf("tree edge %d→%d not in graph", p, v)
		}
	}
	return nil
}

// advance moves the checker to the next epoch of a mutating graph by
// replaying the batch on its own edge list; references start empty again.
func (c *checker) advance(b *delta.Batch) error {
	el, err := delta.Apply(c.el, b)
	if err != nil {
		return err
	}
	*c = *newChecker(el)
	return nil
}

// synthesizeDelta draws the next mixed delta for the checker's epoch: about
// frac of the undirected edges, half deleted (sampled from the edge list),
// half inserted (fresh non-self pairs), no pair twice. It stands in for
// gcbfs.SynthesizeDelta, which indexes the whole edge list per call and
// would spend two thirds of the mutable workload's run generating input.
func (c *checker) synthesizeDelta(frac float64, seed uint64) *gcbfs.Delta {
	rng := rand.New(rand.NewSource(int64(seed)))
	count := max(int(frac*float64(len(c.el.Edges))/2), 2)
	taken := map[gcbfs.Edge]bool{}
	take := func(u, v int64) (gcbfs.Edge, bool) {
		e := gcbfs.Edge{U: min(u, v), V: max(u, v)}
		if u == v || taken[e] {
			return e, false
		}
		taken[e] = true
		return e, true
	}
	d := &gcbfs.Delta{}
	for len(d.Deletes) < count/2 {
		e := c.el.Edges[rng.Intn(len(c.el.Edges))]
		if pair, ok := take(e.U, e.V); ok {
			d.Deletes = append(d.Deletes, pair)
		}
	}
	for len(d.Inserts) < count-count/2 {
		u, v := rng.Int63n(c.csr.N), rng.Int63n(c.csr.N)
		if slices.Contains(c.csr.Neighbors(u), v) {
			continue
		}
		if pair, ok := take(u, v); ok {
			d.Inserts = append(d.Inserts, pair)
		}
	}
	return d
}

// makeInputs generates the workload's graph and source pool from the seed.
// Sources are positive-degree vertices whose traversal reaches most of the
// graph, so no op is the one-iteration query Graph500 reporting filters out.
func makeInputs(w workload, seed uint64) (*inputs, error) {
	in := &inputs{}
	var el *graph.EdgeList
	t0 := time.Now()
	if w.Web {
		el = gen.WebGraph(gen.DefaultWebParams(w.Scale))
	} else {
		p := rmat.DefaultParams(w.Scale)
		p.Seed = derive(seed, graphStream)
		el = rmat.Generate(p)
	}
	in.genSeconds = time.Since(t0).Seconds()
	if w.Web {
		in.g = gcbfs.WebGraph(w.Scale)
	} else {
		in.g = gcbfs.RMATWithSeed(w.Scale, derive(seed, graphStream))
	}
	if in.g.NumVertices() != el.N || in.g.NumEdges() != el.M() {
		return nil, fmt.Errorf("façade graph (%d vertices, %d edges) differs from the layer copy (%d, %d)",
			in.g.NumVertices(), in.g.NumEdges(), el.N, el.M())
	}
	in.chk = newChecker(el)

	deg := el.OutDegrees()
	var connected int64
	for _, d := range deg {
		if d > 0 {
			connected++
		}
	}
	for _, s := range graph.PickSources(deg, 2*w.Pool, derive(seed, sourceStream)) {
		if len(in.pool) == w.Pool {
			break
		}
		if 2*g500.VisitedCount(in.chk.reference(s, &in.serial)) > connected {
			in.pool = append(in.pool, s)
		}
	}
	if len(in.pool) == 0 {
		return nil, fmt.Errorf("no source reaches half of the %d connected vertices", connected)
	}
	return in, nil
}

// rotate returns k pool sources starting at position start, wrapping.
func (in *inputs) rotate(start, k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = in.pool[(start+i)%len(in.pool)]
	}
	return out
}

// batchOf converts a façade Delta to the layer representation, the way the
// façade does before delta.Apply.
func batchOf(d *gcbfs.Delta) *delta.Batch {
	b := &delta.Batch{
		Inserts: make([]graph.Edge, len(d.Inserts)),
		Deletes: make([]graph.Edge, len(d.Deletes)),
	}
	for i, e := range d.Inserts {
		b.Inserts[i] = graph.Edge{U: e.U, V: e.V}
	}
	for i, e := range d.Deletes {
		b.Deletes[i] = graph.Edge{U: e.U, V: e.V}
	}
	return b
}
