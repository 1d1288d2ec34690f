package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gcbfs/internal/frontier"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
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
	if err := validateTree(el, src, res.Parents, res.Levels); err != nil {
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
	if res.ParentPairs > e.sg.CountNN {
		t.Fatalf("parent pairs %d exceed |Enn| %d", res.ParentPairs, e.sg.CountNN)
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

// TestCandidateFormAtUint32Edge holds the one parent-candidate form, a uint32
// global id + 1 with 0 for none, where it wraps: the largest id a plan that
// collects parents admits (it refuses 2^32 vertices or more) is stored as all
// ones, and the all-ones id, which a missed compare or a prior parent of -1
// turns into, is no offer at all. A replay pair carries that largest id, and a
// level as deep as an int32 allows, through a packed pairs block intact.
func TestCandidateFormAtUint32Edge(t *testing.T) {
	const allOnes = math.MaxUint32
	const largest = allOnes - 1
	for _, id := range []uint32{0, 1, 1 << 31, largest} {
		if got := fold(0, id); got != id+1 {
			t.Errorf("none took offer %d as %d, want %d", id, got, id+1)
		}
	}
	for _, c := range []uint32{0, 1, allOnes} {
		if got := fold(c, allOnes); got != c {
			t.Errorf("the all-ones id moved candidate %d to %d", c, got)
		}
	}
	c := fold(0, largest)
	if c != allOnes || parentOf(c) != largest {
		t.Fatalf("global id %d stored as %d, read back as %d", int64(largest), c, parentOf(c))
	}
	if got := fold(c, 7); got != 8 || fold(got, largest) != 8 || parentOf(0) != -1 {
		t.Fatalf("a smaller offer must win against the largest candidate and a larger one lose: %d", got)
	}
	global := []int64{4, largest}
	if delegateOffer(global, 1) != largest || delegateOffer(global, allOnes) != allOnes {
		t.Fatal("delegateOffer: a delegate offers its global id, a row without a hit none")
	}

	// A replay pair from the largest id, claiming a child at level 1, through
	// its value, a packed pairs block and the fold that accepts it — beside a
	// claim at the deepest level an int32 holds, which a level-1 child refuses.
	gs := &gpuState{levels: []int32{0, 1, math.MaxInt32}, parents: make([]uint32, 3)}
	sent := []frontier.Pair{{ID: 1, Val: parentPairVal(largest, 1)}, {ID: 1, Val: parentPairVal(5, math.MaxInt32)}, {ID: 2, Val: parentPairVal(largest, math.MaxInt32)}}
	block, st := wire.AppendPairsRank(nil, [][]frontier.Pair{sent}, nil, 0, wire.ModeAdaptive)
	into := make([][]frontier.Pair, 1)
	err := wire.DecodePairsRankInto(block, into, nil, 0)
	if got := into[0]; err != nil || st.Selected[wire.SchemePacked] != 1 || !slices.Equal(got, sent) {
		t.Fatalf("block of the edge pairs (schemes %v) decoded to %v (err %v), want %v", st.Selected, got, err, sent)
	}
	accept(gs, into[0])
	if gs.parents[1] != allOnes || parentOf(gs.parents[1]) != largest || parentOf(gs.parents[2]) != largest || gs.parents[0] != 0 {
		t.Fatalf("accepted candidates %v, want id %d at slots 1 and 2", gs.parents, int64(largest))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("parentPairVal packed a sender id of 2^32")
			}
		}()
		parentPairVal(1<<32, 1)
	}()

	visited := make([]uint64, 2)
	visited[0] = 1<<5 | 1<<9
	row := []uint32{70, 3, 64, 63}
	if got := minVisited(5, row, visited); got != 5 {
		t.Fatalf("minVisited with nothing past the first hit visited = %d, want 5", got)
	}
	visited[1] = 1 << 0 // 64: visited, but larger than the first hit
	visited[0] |= 1 << 3
	if got := minVisited(9, row, visited); got != 3 {
		t.Fatalf("minVisited = %d, want the smallest visited id 3", got)
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

// TestParentsNeedUint32IDs: every entry point that collects a tree refuses a
// graph of 2^32 vertices or more, whose delegate candidates would not fit
// their uint32 form (reduceDelegates), before it touches the graph — the plan
// here has nothing else. A graph one vertex smaller, and a query that does not
// collect the tree, pass.
func TestParentsNeedUint32IDs(t *testing.T) {
	opts := DefaultOptions()
	opts.CollectParents = true
	p := &Plan{sg: &partition.Subgraphs{N: math.MaxUint32 + 1}, base: opts}
	ctx := context.Background()
	_, errRun := p.Run(ctx, 0, Overrides{})
	_, errRepair := p.Repair(ctx, Prior{}, nil, nil, Overrides{})
	_, errRunRepair := p.RunRepair(ctx, 0, nil, nil, nil, Overrides{})
	_, errSweep := p.RunSweep(ctx, []int64{0}, Overrides{})
	for name, err := range map[string]error{"Run": errRun, "Repair": errRepair, "RunRepair": errRunRepair, "RunSweep": errSweep} {
		if err == nil || !strings.Contains(err.Error(), "fewer than 2^32 vertices") {
			t.Errorf("%s on %d vertices with parents: error %v", name, p.sg.N, err)
		}
	}
	off := false
	if _, err := p.effectiveOptions(Overrides{CollectParents: &off}); err != nil {
		t.Errorf("levels only on %d vertices: %v", p.sg.N, err)
	}
	p.sg.N = math.MaxUint32
	if _, err := p.effectiveOptions(Overrides{}); err != nil {
		t.Errorf("parents on %d vertices: %v", p.sg.N, err)
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
// candidates and re-resolves the whole tree on the phase driver. Part of
// the tree is found inside the kernels, so it also reports the tree's whole
// price, tree-share: 1 − t(levels-only Run) / t(Run with parents), the
// two runs alternating over the same source. Beside the cost per dd edge of
// the graph, it reports what the nn replay sent: the pairs, their wire bytes
// per pair (pair-B/pair, Wire.PairWireBytes / ParentPairs), the share of them
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
			// resolves none: the delegate candidates are left as the kernels
			// recorded them, to be restored before every resolution, since the
			// nd pass and the stripe min-fold write them.
			if _, err := s.traverse(ctx, src, treeOut{levels: make([]int32, s.sg.N)}, func() error {
				w := s.coldWave(src)
				s.bindWave(src, w)
				return s.runWave(ctx, w.schedule)
			}); err != nil {
				b.Fatal(err)
			}
			recorded := make([][]uint32, len(s.scratch))
			for r, sc := range s.scratch {
				recorded[r] = slices.Clone(sc.parents.cand)
			}
			// finish runs driven phases on the session's World, as a
			// traversal's finisher does.
			finish := func(phases func() error) {
				s.drv.reset(s.acquireWorld())
				defer s.drv.stop()
				s.drv.fan = s.sg.N >= fanWork
				if err := phases(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for r, sc := range s.scratch {
					copy(sc.parents.cand, recorded[r])
				}
				for _, gs := range s.gpus {
					clear(gs.parents)
				}
				s.parentExchangePairs, s.parentPairWireBytes = 0, 0
				s.out = newTreeOut(&s.opts, s.sg.N)
				b.StartTimer()
				finish(func() error { return s.finishQuery(src) })
			}
			b.StopTimer()
			resolve := b.Elapsed()
			edd := float64(plan.sg.CountDD)
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
			b.ReportMetric(float64(s.parentPairWireBytes)/float64(max(sent, 1)), "pair-B/pair")
			b.ReportMetric(float64(accepted)/float64(max(sent, 1)), "accepted/pair")
			b.ReportMetric(float64(flagged)/float64(max(senders, 1)), "flagged/sender")

			// The gather alone, over the rows the last resolution left final.
			start := time.Now()
			for i := 0; i < b.N; i++ {
				finish(func() error { return s.drv.run(s, phaseGather) })
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

// validateTree checks a BFS tree (the Graph500 deliverable) against the
// graph and the hop distances: the source is its own parent; every other
// visited vertex's parent is a real neighbor exactly one level closer; and
// unvisited vertices carry no parent.
func validateTree(el *graph.EdgeList, source int64, parents []int64, levels []int32) error {
	if int64(len(parents)) != el.N || int64(len(levels)) != el.N {
		return fmt.Errorf("tree arrays sized %d/%d, graph has %d vertices",
			len(parents), len(levels), el.N)
	}
	if parents[source] != source {
		return fmt.Errorf("parent[source] = %d, want %d", parents[source], source)
	}
	if levels[source] != 0 {
		return fmt.Errorf("source level = %d", levels[source])
	}
	edges := make(map[graph.Edge]bool, len(el.Edges))
	for _, e := range el.Edges {
		edges[e] = true
	}
	for v := int64(0); v < el.N; v++ {
		p := parents[v]
		if levels[v] < 0 {
			if p != -1 {
				return fmt.Errorf("unvisited vertex %d has parent %d", v, p)
			}
			continue
		}
		if v == source {
			continue
		}
		if p < 0 || p >= el.N {
			return fmt.Errorf("vertex %d has invalid parent %d", v, p)
		}
		if levels[p] != levels[v]-1 {
			return fmt.Errorf("vertex %d (level %d) has parent %d at level %d",
				v, levels[v], p, levels[p])
		}
		if !edges[graph.Edge{U: p, V: v}] {
			return fmt.Errorf("tree edge %d→%d not in graph", p, v)
		}
	}
	return nil
}
