package core

import (
	"context"
	"fmt"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
)

// referenceMinParents is the serial oracle of the canonical tree: the parent
// of a visited vertex is the smallest global id among its neighbors exactly
// one level closer to the source, the source is its own parent, unvisited
// vertices have none.
func referenceMinParents(csr *graph.CSR, levels []int32, source int64) []int64 {
	parents := make([]int64, len(levels))
	for v := range parents {
		parents[v] = -1
		if levels[v] < 1 {
			continue
		}
		for _, u := range csr.Neighbors(int64(v)) {
			if levels[u] == levels[v]-1 && (parents[v] == -1 || u < parents[v]) {
				parents[v] = u
			}
		}
	}
	parents[source] = source
	return parents
}

func requireMinParents(t *testing.T, label string, csr *graph.CSR, source int64, levels []int32, parents []int64) {
	t.Helper()
	want := referenceMinParents(csr, levels, source)
	if len(parents) != len(want) {
		t.Fatalf("%s: %d parents, want %d", label, len(parents), len(want))
	}
	for v := range want {
		if parents[v] != want[v] {
			t.Fatalf("%s: source %d vertex %d (level %d) parent %d, min-id oracle %d",
				label, source, v, levels[v], parents[v], want[v])
		}
	}
}

// TestParentsEqualMinIDOracle pins the tree itself, not just its validity:
// Run, RunSweep and Repair must each return exactly the min-id tree of
// their levels on every shape and threshold, including a graph deeper than
// one sweep word — Repair also when it resolves in full on a session a cold
// run has just left its recorded candidates in.
func TestParentsEqualMinIDOracle(t *testing.T) {
	ctx := context.Background()
	graphs := []struct {
		name string
		el   *graph.EdgeList
	}{
		{"rmat9", rmat.Generate(rmat.DefaultParams(9))},
		{"web7", gen.WebGraph(gen.WebParams{Scale: 7, EdgeFactor: 8, NumChains: 3, ChainLength: 70, Seed: 5})},
	}
	shapes := []ClusterShape{{1, 1, 1}, {1, 2, 2}, {3, 1, 2}, {2, 1, 4}}
	opts := DefaultOptions()
	opts.CollectParents = true
	for _, gr := range graphs {
		el := gr.el
		csr := graph.BuildCSR(el)
		sources := pickSources(el.OutDegrees(), 70, 11)
		b := delta.Synthesize(el, 0.01, delta.KindMixed, 7)
		el2, err := delta.Apply(el, b)
		if err != nil {
			t.Fatal(err)
		}
		csr2 := graph.BuildCSR(el2)
		for _, shape := range shapes {
			cfg := shape.PartitionConfig()
			def := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
			for _, th := range []int64{0, def, 1 << 40} {
				label := fmt.Sprintf("%s/%s/th%d", gr.name, shape, th)
				sg, err := partition.Distribute(el, partition.Separate(el, th), cfg)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := NewPlanEpoch(sg, shape, opts, 1)
				if err != nil {
					t.Fatal(err)
				}
				var prior []int32
				var priorParents []int64
				for _, src := range sources[:3] {
					res, err := plan.Run(ctx, src, Overrides{})
					if err != nil {
						t.Fatal(err)
					}
					requireMinParents(t, label+"/run", csr, src, res.Levels, res.Parents)
					if prior == nil {
						prior, priorParents = res.Levels, res.Parents
					}
				}
				if gr.name == "web7" {
					deepest := int32(0)
					for _, l := range prior {
						deepest = max(deepest, l)
					}
					if deepest <= 64 {
						t.Fatalf("%s: depth %d, want a tree deeper than 64 levels", label, deepest)
					}
				}
				for _, k := range []int{1, 64, 70} {
					sweep, err := plan.RunSweep(ctx, sources[:k], Overrides{})
					if err != nil {
						t.Fatal(err)
					}
					for q, res := range sweep {
						requireMinParents(t, fmt.Sprintf("%s/sweep%d[%d]", label, k, q), csr, sources[q], res.Levels, res.Parents)
					}
				}

				sg2, _, err := partition.DistributeIncremental(el2, partition.Separate(el2, th), cfg, sg)
				if err != nil {
					t.Fatal(err)
				}
				plan2, err := NewPlanEpoch(sg2, shape, opts, 2)
				if err != nil {
					t.Fatal(err)
				}
				invalid := delta.Invalidated(prior, priorParents, b)
				rep, err := plan2.Repair(ctx, Prior{Source: sources[0], Levels: prior, Parents: priorParents}, invalid, b.Inserts, Overrides{})
				if err != nil {
					t.Fatal(err)
				}
				requireMinParents(t, label+"/repair", csr2, sources[0], rep.Levels, rep.Parents)

				// The same repair resolved in full, on a session a cold run from
				// another source has just used: the run's kernels recorded its dd
				// candidates, the wave's record none, and neither may reach the
				// repair's tree.
				s := plan2.acquire(opts)
				if _, err := s.run(ctx, sources[1]); err != nil {
					t.Fatal(err)
				}
				forward := opts
				forward.DirectionOptimized = false // as Plan.repair runs every repair
				s.configure(forward)
				_, seeds := delta.Affected(prior, priorParents, b)
				full, err := s.repair(ctx, &repairIn{source: sources[0], levels: prior, parents: priorParents, invalid: invalid, seeds: seeds, full: true})
				plan2.release(s)
				if err != nil {
					t.Fatal(err)
				}
				requireMinParents(t, label+"/repair-after-run", csr2, sources[0], full.Levels, full.Parents)
			}
		}
	}
}

// TestTreeDirections pins the chooser on the two star traversals: from the
// hub the single level-0 row pushes to the leaves; from a leaf the hub is
// reached by push and the other leaves by pull (the hub's row is the heavier
// side). A tie is push, on every rank.
func TestTreeDirections(t *testing.T) {
	const leaves = 8
	outDeg := make([]int64, leaves+1)
	outDeg[0] = leaves
	fromHub := make([]int32, leaves+1)
	fromLeaf := make([]int32, leaves+1)
	for i := 1; i <= leaves; i++ {
		outDeg[i] = 1
		fromHub[i] = 1
		fromLeaf[i] = 2
	}
	fromLeaf[0], fromLeaf[3] = 1, 0

	var ps parentScratch
	check := func(label string, dLevel []int32, want []bool) {
		t.Helper()
		got := ps.treeDirections(dLevel, outDeg)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: push = %v, want %v", label, got, want)
		}
	}
	// Entry 0 (the root never pulls) and the last (the deepest level never
	// pushes) are fixed; the ones between are the level pairs.
	check("hub", fromHub, []bool{true, true, false})
	check("leaf", fromLeaf, []bool{true, true, false, false})
	check("unvisited", []int32{-1, -1}, []bool{true, false})

	// The same star through the engine: the direction must not change the tree.
	el := gen.Star(leaves + 1)
	csr := graph.BuildCSR(el)
	opts := DefaultOptions()
	opts.CollectParents = true
	e := buildPlan(t, el, ClusterShape{2, 1, 2}, 0, opts)
	for _, src := range []int64{0, 3} {
		res, err := e.Run(context.Background(), src, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		requireMinParents(t, "star", csr, src, res.Levels, res.Parents)
	}
}
