package core

import (
	"context"
	"testing"

	"gcbfs/internal/g500"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
)

// runWithParents executes a run with tree collection and validates the tree
// against the Graph500-style rules.
func runWithParents(t *testing.T, el *graph.EdgeList, shape ClusterShape, th int64, src int64, opts Options) {
	t.Helper()
	opts.CollectLevels = true
	opts.CollectParents = true
	e := buildPlan(t, el, shape, th, opts)
	res, err := e.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parents == nil {
		t.Fatal("no parents collected")
	}
	if err := g500.ValidateTree(el, src, res.Parents, res.Levels); err != nil {
		t.Fatalf("tree validation (shape %s, th %d, src %d): %v", shape, th, src, err)
	}
}

func TestParentsPath(t *testing.T) {
	el := gen.Path(20)
	runWithParents(t, el, ClusterShape{2, 1, 2}, 100, 0, DefaultOptions())
	runWithParents(t, el, ClusterShape{2, 1, 2}, 100, 10, DefaultOptions())
}

func TestParentsStarDelegate(t *testing.T) {
	el := gen.Star(30)
	// Hub is a delegate; tree from hub and from a leaf.
	runWithParents(t, el, ClusterShape{2, 1, 2}, 5, 0, DefaultOptions())
	runWithParents(t, el, ClusterShape{2, 1, 2}, 5, 13, DefaultOptions())
}

func TestParentsRMATAllShapes(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	sources := pickSources(el.OutDegrees(), 2, 17)
	for _, shape := range []ClusterShape{{1, 1, 1}, {1, 2, 2}, {3, 1, 2}} {
		for _, src := range sources {
			runWithParents(t, el, shape, 8, src, DefaultOptions())
			runWithParents(t, el, shape, 8, src, PlainBFSOptions())
		}
	}
}

func TestParentsThresholdExtremes(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	src := pickSources(el.OutDegrees(), 1, 3)[0]
	runWithParents(t, el, ClusterShape{2, 1, 2}, 0, src, DefaultOptions())
	runWithParents(t, el, ClusterShape{2, 1, 2}, 1<<40, src, DefaultOptions())
}

func TestParentsWebGraph(t *testing.T) {
	el := gen.WebGraph(gen.WebParams{Scale: 8, EdgeFactor: 8, NumChains: 3, ChainLength: 30, Seed: 5})
	src := pickSources(el.OutDegrees(), 1, 9)[0]
	runWithParents(t, el, ClusterShape{2, 2, 1}, 8, src, DefaultOptions())
}

func TestParentPairsReported(t *testing.T) {
	// With no delegates (TH=inf) all inter-GPU edges are nn: the
	// resolution round must replay them.
	el := rmat.Generate(rmat.DefaultParams(8))
	src := pickSources(el.OutDegrees(), 1, 2)[0]
	opts := DefaultOptions()
	opts.CollectParents = true
	e := buildPlan(t, el, ClusterShape{2, 1, 2}, 1<<40, opts)
	res, err := e.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ParentPairs == 0 {
		t.Fatal("no parent-resolution pairs counted despite nn-only graph")
	}
	// Pairs are bounded by |Enn| (every remote nn edge replayed once).
	if res.ParentPairs > e.Graph().CountNN {
		t.Fatalf("parent pairs %d exceed |Enn| %d", res.ParentPairs, e.Graph().CountNN)
	}
}

func TestParentsOffByDefault(t *testing.T) {
	el := gen.Path(8)
	e := buildPlan(t, el, ClusterShape{1, 1, 2}, 10, DefaultOptions())
	res, err := e.Run(context.Background(), 0, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parents != nil || res.ParentPairs != 0 {
		t.Fatal("parents collected without CollectParents")
	}
}

func TestForceTWBForDDSlowsSkewedGraphs(t *testing.T) {
	// RMAT's dd subgraph has wide degree spread; forcing TWB must cost
	// computation time versus merge-path (the §IV-A rationale), while
	// distances stay identical.
	el := rmat.Generate(rmat.DefaultParams(12))
	src := pickSources(el.OutDegrees(), 1, 4)[0]
	base := DefaultOptions()
	base.WorkAmplification = 1 << 12
	forced := base
	forced.ForceTWBForDD = true
	eBase := buildPlan(t, el, ClusterShape{2, 1, 2}, 4, base)
	eForced := buildPlan(t, el, ClusterShape{2, 1, 2}, 4, forced)
	rBase, err := eBase.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	rForced, err := eForced.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if rForced.Parts.Computation <= rBase.Parts.Computation {
		t.Fatalf("forcing TWB on dd did not slow computation: %g vs %g",
			rForced.Parts.Computation, rBase.Parts.Computation)
	}
	for v := range rBase.Levels {
		if rBase.Levels[v] != rForced.Levels[v] {
			t.Fatal("strategy ablation changed distances")
		}
	}
}

// BenchmarkResolveParents times the post-BFS tree resolution and gather alone
// (scale 16, 2×2×2, the default 4n/p threshold): one traversal leaves its
// levels in the session, then every iteration re-resolves the whole tree on
// the rank goroutines. It reports the cost per dd edge of the graph and the
// share of dd row entries the direction-optimised pass actually read.
func BenchmarkResolveParents(b *testing.B) {
	el := rmat.Generate(rmat.DefaultParams(16))
	shape := ClusterShape{2, 2, 2}
	th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
	opts := DefaultOptions()
	opts.CollectParents = true
	plan := buildPlan(b, el, shape, th, opts)
	src := pickSources(el.OutDegrees(), 1, 5)[0]
	s := plan.acquire(opts)
	defer plan.release(s)
	if _, err := s.run(context.Background(), src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gs := range s.gpus {
			for slot := range gs.parents {
				gs.parents[slot] = -1
			}
		}
		s.out = newTreeOut(&s.opts, s.sg.N)
		err := RunRanks(s.acquireWorld(), nil, tagSite, func(rank int, comm *mpi.Comm) {
			s.finishQuery(rank, comm, src)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var read int64
	for _, sc := range s.scratch {
		read += sc.parents.ddEdges
	}
	edd := float64(plan.Graph().CountDD)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/edd, "ns/dd-edge")
	b.ReportMetric(float64(read)/edd, "dd-read/|Edd|")
}
