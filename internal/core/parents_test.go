package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"gcbfs/internal/g500"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
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

// TestTreeIsUncharged: collecting the tree changes no modelled figure of the
// traversal. The kernels record the delegate tier's candidates as they scan,
// and a backward dd scan reads on past its first hit to do so, but the tree is
// unpriced (§VI-A3): the run's time, edges, supersteps and wire bytes are a
// levels-only run's, the resolution's own pair bytes aside.
func TestTreeIsUncharged(t *testing.T) {
	graphs := []struct {
		name string
		el   *graph.EdgeList
	}{
		{"rmat10", rmat.Generate(rmat.DefaultParams(10))},
		{"web8", gen.WebGraph(gen.WebParams{Scale: 8, EdgeFactor: 8, NumChains: 3, ChainLength: 40, Seed: 9})},
	}
	on, off := true, false
	backwardDD := 0
	for _, g := range graphs {
		src := pickSources(g.el.OutDegrees(), 1, 3)[0]
		for _, shape := range []ClusterShape{{1, 1, 1}, {2, 2, 2}, {3, 1, 2}} {
			th := partition.SuggestThreshold(g.el.OutDegrees(), 4*g.el.N/int64(shape.P()))
			for _, do := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/do=%v", g.name, shape, do)
				opts := DefaultOptions()
				opts.DirectionOptimized = do
				p := buildPlan(t, g.el, shape, th, opts)
				tree, err := p.Run(context.Background(), src, Overrides{CollectParents: &on})
				if err != nil {
					t.Fatal(err)
				}
				bare, err := p.Run(context.Background(), src, Overrides{CollectParents: &off})
				if err != nil {
					t.Fatal(err)
				}
				if tree.Parents == nil || bare.Parents != nil {
					t.Fatalf("%s: CollectParents did not switch the tree", name)
				}
				if tree.SimSeconds != bare.SimSeconds || tree.EdgesScanned != bare.EdgesScanned {
					t.Fatalf("%s: the tree moved the run: %g s, %d edges; levels only %g s, %d edges",
						name, tree.SimSeconds, tree.EdgesScanned, bare.SimSeconds, bare.EdgesScanned)
				}
				if !reflect.DeepEqual(tree.PerIteration, bare.PerIteration) {
					t.Fatalf("%s: the tree moved a superstep", name)
				}
				tw, bw := tree.Wire, bare.Wire
				tw.PairRawBytes, tw.PairWireBytes, bw.PairRawBytes, bw.PairWireBytes = 0, 0, 0, 0
				if tw != bw {
					t.Fatalf("%s: the tree moved the wire\n got %+v\nwant %+v", name, tw, bw)
				}
				for _, it := range tree.PerIteration {
					if it.DirDD == metrics.Backward {
						backwardDD++
					}
				}
			}
		}
	}
	if backwardDD == 0 {
		t.Fatal("no superstep ran dd backward: the uncounted tail reads went untested")
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
// (scale 16, the default 4n/p threshold) on the shapes of the two host
// workloads that run it — rmat18-compute's 2×2×2 with the default options and
// rmat16-exchange's 16×2×2 with butterfly and the adaptive codec: one
// traversal leaves its levels, child-level bits and the tree candidates its
// kernels recorded in the session, then every iteration restores those
// candidates and re-resolves the whole tree on the rank goroutines. Part of
// the tree is found inside the kernels, so it also reports the tree's whole
// price, tree-share: 1 − t(levels-only Run) / t(Run with parents), the
// two runs alternating over the same source. Beside the cost per dd edge of
// the graph, it reports what the nn replay sent: the pairs, the share of them
// whose target sits at the claimed level (all a fold can accept), the share of
// the visited vertices with nn rows that replayed theirs — and the gather's
// cost per vertex, timed on its own.
func BenchmarkResolveParents(b *testing.B) {
	el := rmat.Generate(rmat.DefaultParams(16))
	src := pickSources(el.OutDegrees(), 1, 5)[0]
	exchange := DefaultOptions()
	exchange.Exchange = ExchangeButterfly
	exchange.Compression = wire.ModeAdaptive
	for _, tc := range []struct {
		name  string
		shape ClusterShape
		opts  Options
	}{
		{"2x2x2", ClusterShape{2, 2, 2}, DefaultOptions()},
		{"16x2x2-butterfly-adaptive", ClusterShape{16, 2, 2}, exchange},
	} {
		b.Run(tc.name, func(b *testing.B) {
			th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(tc.shape.P()))
			opts := tc.opts
			opts.CollectParents = true
			plan := buildPlan(b, el, tc.shape, th, opts)
			ctx := context.Background()
			s := plan.acquire(opts)
			defer plan.release(s)
			// A traversal that collects parents but, handed no parent array,
			// resolves none: the dd candidates are left as the kernels recorded
			// them, to be restored before every resolution.
			w := s.coldWave(src)
			if _, err := s.traverse(ctx, src, treeOut{levels: make([]int32, s.sg.N)}, func(rank int, comm *mpi.Comm) {
				s.runWave(ctx, rank, comm, src, w)
			}); err != nil {
				b.Fatal(err)
			}
			recorded := make([][]uint32, len(s.scratch))
			for r, sc := range s.scratch {
				recorded[r] = slices.Clone(sc.parents.dd)
			}
			finish := func(body func(rank int, comm *mpi.Comm)) {
				if err := RunRanks(s.acquireWorld(), nil, tagSite, body); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for r, sc := range s.scratch {
					copy(sc.parents.dd, recorded[r])
				}
				for _, gs := range s.gpus {
					for slot := range gs.parents {
						gs.parents[slot] = -1
					}
				}
				s.parentExchangePairs = 0
				s.out = newTreeOut(&s.opts, s.sg.N)
				b.StartTimer()
				finish(func(rank int, comm *mpi.Comm) { s.finishQuery(rank, comm, src) })
			}
			b.StopTimer()
			resolve := b.Elapsed()
			edd := float64(plan.Graph().CountDD)
			b.ReportMetric(float64(resolve.Nanoseconds())/float64(b.N)/edd, "ns/dd-edge")

			var senders, flagged, sent, accepted int64
			for _, gs := range s.gpus {
				for slot := int64(0); slot < gs.pg.NumLocal; slot++ {
					lvl := gs.levels[slot]
					if lvl < 0 || gs.pg.NN.Degree(slot) == 0 {
						continue
					}
					senders++
					if !gs.hasChild.Get(slot) {
						continue
					}
					flagged++
					for _, v := range gs.pg.NN.Neighbors(slot) {
						if owner := s.cfg.OwnerGPU(v); owner != gs.pg.GPU {
							sent++
							if s.gpus[owner].levels[s.cfg.LocalID(v)] == lvl+1 {
								accepted++
							}
						}
					}
				}
			}
			if sent != s.parentExchangePairs {
				b.Fatalf("the replay sent %d pairs, the flagged rows hold %d", s.parentExchangePairs, sent)
			}
			b.ReportMetric(float64(sent), "pairs")
			b.ReportMetric(float64(accepted)/float64(max(sent, 1)), "accepted/pair")
			b.ReportMetric(float64(flagged)/float64(max(senders, 1)), "flagged/sender")

			// The gather alone, over the rows the last resolution left final.
			start := time.Now()
			for i := 0; i < b.N; i++ {
				finish(func(rank int, comm *mpi.Comm) { s.gatherRank(rank, comm, &s.scratch[rank].parents) })
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N)/float64(s.sg.N), "gather-ns/vertex")

			var levelsOnly, withTree time.Duration
			noTree, tree := false, true
			for i := 0; i < b.N; i++ {
				for _, collect := range []*bool{&noTree, &tree} {
					t0 := time.Now()
					if _, err := plan.Run(ctx, src, Overrides{CollectParents: collect}); err != nil {
						b.Fatal(err)
					}
					if *collect {
						withTree += time.Since(t0)
					} else {
						levelsOnly += time.Since(t0)
					}
				}
			}
			b.ReportMetric(1-levelsOnly.Seconds()/withTree.Seconds(), "tree-share")
		})
	}
}
