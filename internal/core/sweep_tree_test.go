package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"gcbfs/internal/baseline"
	"gcbfs/internal/faults"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// requireSweepIsCanonical holds a sweep to the two serial oracles directly,
// not to Run: every lane's levels are baseline.SerialBFS's and its parents the
// min-id tree of those levels.
func requireSweepIsCanonical(t *testing.T, el *graph.EdgeList, shape ClusterShape, th int64, mode wire.Mode, sources []int64) {
	t.Helper()
	opts := DefaultOptions()
	opts.CollectParents = true
	opts.Compression = mode
	csr := graph.BuildCSR(el)
	sweep, err := buildTestPlan(t, el, shape, th, opts).RunSweep(context.Background(), sources, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	for q, src := range sources {
		label := fmt.Sprintf("%s th=%d lane %d", shape, th, q)
		want := baseline.SerialBFS(csr, src)
		if !slices.Equal(sweep[q].Levels, want) {
			for v := range want {
				if sweep[q].Levels[v] != want[v] {
					t.Fatalf("%s: source %d vertex %d level %d, serial BFS says %d", label, src, v, sweep[q].Levels[v], want[v])
				}
			}
		}
		requireMinParents(t, label, csr, src, sweep[q].Levels, sweep[q].Parents)
		if deepest := slices.Max(want); sweep[q].Iterations != int(deepest)+1 {
			t.Fatalf("%s: %d iterations for a tree %d deep", label, sweep[q].Iterations, deepest)
		}
	}
}

// The tree comes out of the frontier history, level by level, so its depth is
// a dimension of its own: paths and chains deeper than 255 and than 2·255
// levels (a one-byte level tag would wrap; the history's levels are exact), in
// both tiers — threshold 100 keeps a path all normal, threshold 1 makes every
// inner vertex a delegate.
func TestSweepDeepTrees(t *testing.T) {
	path := gen.Path(700)
	if d := partition.Separate(path, 1).D(); d != 698 {
		t.Fatalf("threshold 1 makes %d delegates of a 700-path, want 698", d)
	}
	web := gen.WebGraph(gen.WebParams{Scale: 7, EdgeFactor: 8, NumChains: 2, ChainLength: 600, Seed: 3})
	webSources := pickSources(web.OutDegrees(), 5, 13)
	if deepest := slices.Max(baseline.SerialBFS(graph.BuildCSR(web), webSources[0])); deepest <= 2*255 {
		t.Fatalf("web graph is %d deep, want more than %d", deepest, 2*255)
	}
	for _, tc := range []struct {
		name    string
		el      *graph.EdgeList
		th      int64
		sources []int64
	}{
		{"path/normal", path, 100, []int64{0, 699, 350, 300, 0}},
		{"path/delegate", path, 1, []int64{0, 699, 350, 300, 0}},
		{"web", web, 8, webSources},
	} {
		for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, mode), func(t *testing.T) {
				requireSweepIsCanonical(t, tc.el, ClusterShape{3, 1, 2}, tc.th, mode, tc.sources)
			})
		}
	}
}

// One lane and the widest sweep there is (16 mask words), no delegates, only
// delegates, and every GPUsPerRank on an odd rank count.
func TestSweepWidthsAndShapes(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	base := pickSources(el.OutDegrees(), 100, 7)
	wide := make([]int64, MaxSweepWidth)
	for q := range wide {
		wide[q] = base[q*7%len(base)]
	}
	for _, tc := range []struct {
		name    string
		shape   ClusterShape
		th      int64
		sources []int64
	}{
		{"K=1", ClusterShape{3, 1, 2}, 8, base[:1]},
		{"K=1024", ClusterShape{3, 1, 2}, 8, wide},
		{"d=0", ClusterShape{3, 1, 2}, 1 << 40, base[:65]},
		{"all-delegate", ClusterShape{3, 1, 2}, 0, base[:65]},
		{"pgpu=1", ClusterShape{3, 1, 1}, 8, base[:9]},
		{"pgpu=2", ClusterShape{1, 3, 2}, 8, base[:9]},
		{"pgpu=4", ClusterShape{3, 1, 4}, 8, base[:9]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireSweepIsCanonical(t, el, tc.shape, tc.th, wire.ModeAdaptive, tc.sources)
		})
	}
}

// A sweep whose lanes start from a delegate, from normal vertices and from an
// isolated vertex: that lane visits nothing but its root — level -1 and
// parent -1 everywhere else — while its neighbors in the mask words fill up.
func TestSweepIsolatedSource(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	deg := el.OutDegrees()
	isolated, hub := int64(-1), int64(0)
	for v, d := range deg {
		if d == 0 && isolated < 0 {
			isolated = int64(v)
		}
		if d > deg[hub] {
			hub = int64(v)
		}
	}
	if isolated < 0 {
		t.Fatal("no isolated vertex in the graph")
	}
	sources := append([]int64{hub, isolated}, pickSources(deg, 3, 19)...)
	requireSweepIsCanonical(t, el, ClusterShape{2, 1, 2}, 8, wire.ModeAdaptive, sources)

	opts := DefaultOptions()
	opts.CollectParents = true
	p := buildTestPlan(t, el, ClusterShape{2, 1, 2}, 8, opts)
	if sep := p.sg.Sep; !sep.IsDelegate(hub) || !slices.ContainsFunc(sources[2:], func(v int64) bool { return !sep.IsDelegate(v) }) {
		t.Fatalf("want a delegate and a normal source among %v", sources)
	}
	sweep, err := p.RunSweep(context.Background(), sources, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	lane := sweep[1]
	for v := range lane.Levels {
		wantL, wantP := int32(-1), int64(-1)
		if int64(v) == isolated {
			wantL, wantP = 0, isolated
		}
		if lane.Levels[v] != wantL || lane.Parents[v] != wantP {
			t.Fatalf("isolated lane: vertex %d level %d parent %d, want %d / %d", v, lane.Levels[v], lane.Parents[v], wantL, wantP)
		}
	}
	if lane.Iterations != 1 {
		t.Fatalf("isolated lane ran %d iterations, want 1", lane.Iterations)
	}
}

// The collections are independent: levels without parents skips the
// resolution, parents without levels still resolves from the history.
func TestSweepCollectsLevelsOrParents(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	sources := pickSources(el.OutDegrees(), 5, 3)
	ctx := context.Background()
	both := DefaultOptions()
	both.CollectParents = true
	want, err := buildTestPlan(t, el, ClusterShape{2, 1, 2}, 8, both).RunSweep(ctx, sources, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ levels, parents bool }{{true, false}, {false, true}, {false, false}} {
		opts := DefaultOptions()
		opts.CollectLevels, opts.CollectParents = tc.levels, tc.parents
		got, err := buildTestPlan(t, el, ClusterShape{2, 1, 2}, 8, opts).RunSweep(ctx, sources, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		for q := range want {
			if (got[q].Levels != nil) != tc.levels || (got[q].Parents != nil) != tc.parents {
				t.Fatalf("collect %+v: lane %d has levels %t parents %t", tc, q, got[q].Levels != nil, got[q].Parents != nil)
			}
			if tc.levels && !slices.Equal(got[q].Levels, want[q].Levels) || tc.parents && !slices.Equal(got[q].Parents, want[q].Parents) {
				t.Fatalf("collect %+v: lane %d differs from the levels+parents sweep", tc, q)
			}
			if got[q].Iterations != want[q].Iterations || got[q].SimSeconds != want[q].SimSeconds {
				t.Fatalf("collect %+v: lane %d traversal differs", tc, q)
			}
		}
	}
}

// A corrupted replay message — the lane-carrying pairs of the tree resolution,
// the one sweep payload that is not a frontier record — surfaces as the typed
// wire.ErrCorrupt through the containment boundary on every injector seed,
// under the fixed-width packing and under the codec.
func TestSweepCorruptReplaySurfacesTypedError(t *testing.T) {
	sg := chaosGraph(t)
	for _, mode := range chaosModes {
		t.Run(mode.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= chaosSeeds; seed++ {
				in := faults.New(seed, faults.KindCorrupt, 1).WithSites(faults.SiteParents)
				opts := chaosOptions(in, ExchangeAllPairs)
				opts.Compression = mode
				p, err := NewPlan(sg, ClusterShape{2, 2, 2}, opts)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := p.RunSweep(context.Background(), []int64{0, 1, 2}, Overrides{})
				wantCorrupt(t, rs != nil, err, "pair payload")
				if in.Injected() == 0 {
					t.Fatal("sweep failed but the injector fired nothing")
				}
			}
		})
	}
}
