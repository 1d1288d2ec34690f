package core

import (
	"context"
	"slices"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/graph"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// checkRepair runs the full repair property: build epoch 1, run a prior
// query, apply the delta, build epoch 2 incrementally beside it, and require
// RunRepair's levels AND parents to be bit-identical to a full recompute on
// the new epoch.
func checkRepair(t *testing.T, el *graph.EdgeList, shape ClusterShape, th int64, opts Options, source int64, b *delta.Batch) {
	t.Helper()
	ctx := context.Background()
	cfg := shape.PartitionConfig()
	sep := partition.Separate(el, th)
	sg, err := partition.Distribute(el, sep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlanEpoch(sg, shape, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := p1.Run(ctx, source, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if prior.Epoch != 1 {
		t.Fatalf("prior epoch %d, want 1", prior.Epoch)
	}

	el2, err := delta.Apply(el, b)
	if err != nil {
		t.Fatal(err)
	}
	sep2 := partition.Separate(el2, th)
	sg2, _, err := partition.DistributeIncremental(el2, sep2, cfg, sg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlanEpoch(sg2, shape, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p2.Run(ctx, source, Overrides{})
	if err != nil {
		t.Fatal(err)
	}

	invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
	rep, err := p2.RunRepair(ctx, source, prior.Levels, invalid, seeds, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 2 {
		t.Fatalf("repair epoch %d, want 2", rep.Epoch)
	}
	if len(rep.Levels) != len(full.Levels) {
		t.Fatalf("repair levels length %d, want %d", len(rep.Levels), len(full.Levels))
	}
	for v := range full.Levels {
		if rep.Levels[v] != full.Levels[v] {
			t.Fatalf("shape %s: vertex %d repaired level %d, recompute %d (prior %d, invalid %v)",
				shape, v, rep.Levels[v], full.Levels[v], prior.Levels[v], invalid[v])
		}
	}
	if len(rep.Parents) != len(full.Parents) {
		t.Fatalf("repair parents length %d, want %d", len(rep.Parents), len(full.Parents))
	}
	for v := range full.Parents {
		if rep.Parents[v] != full.Parents[v] {
			t.Fatalf("shape %s: vertex %d repaired parent %d, recompute %d",
				shape, v, rep.Parents[v], full.Parents[v])
		}
	}
}

// TestWholeGraphRepairIsForwardBFS pins the repair wave to the BFS superstep:
// a prior that voids every vertex but the root leaves the probe one seed, the
// root at level 0, so the wave is a forward BFS and must cost, superstep by
// superstep, exactly what Plan.Run without direction optimization costs.
func TestWholeGraphRepairIsForwardBFS(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	source := repairSource(el)
	ctx := context.Background()
	for _, shape := range []ClusterShape{{2, 1, 1}, {2, 1, 2}, {3, 1, 4}} {
		for _, ex := range []Exchange{ExchangeAllPairs, ExchangeButterfly} {
			t.Run(shape.String()+"/"+ex.String(), func(t *testing.T) {
				opts := PlainBFSOptions()
				opts.Exchange = ex
				p := buildPlan(t, el, shape, 32, opts)
				full, err := p.Run(ctx, source, Overrides{})
				if err != nil {
					t.Fatal(err)
				}
				n := p.Graph().N
				prior, invalid := make([]int32, n), make([]bool, n)
				for v := range prior {
					prior[v], invalid[v] = -1, true
				}
				prior[source], invalid[source] = 0, false
				rep, err := p.RunRepair(ctx, source, prior, invalid, nil, Overrides{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(rep.Levels, full.Levels) {
					t.Fatal("whole-graph repair levels differ from the forward BFS")
				}
				if rep.Iterations != full.Iterations {
					t.Fatalf("whole-graph repair ran %d supersteps, forward BFS %d", rep.Iterations, full.Iterations)
				}
				for i := range full.PerIteration {
					if got, want := rep.PerIteration[i].Parts, full.PerIteration[i].Parts; got != want {
						t.Errorf("superstep %d charged %+v, forward BFS %+v", i, got, want)
					}
				}
			})
		}
	}
}

// repairSource picks a well-connected root: the highest-out-degree vertex
// reaches a large component, so deltas actually intersect the BFS tree.
func repairSource(el *graph.EdgeList) int64 {
	deg := el.OutDegrees()
	best, bestDeg := int64(0), int64(-1)
	for v, d := range deg {
		if d > bestDeg {
			best, bestDeg = int64(v), d
		}
	}
	return best
}

func repairOptions() Options {
	o := DefaultOptions()
	o.CollectParents = true
	return o
}

func TestRepairMatchesRecompute(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	shape := ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}
	opts := repairOptions()
	opts.Exchange = ExchangeHybrid
	opts.Compression = wire.ModeAdaptive
	source := repairSource(el)
	for _, kind := range []delta.Kind{delta.KindInsert, delta.KindDelete, delta.KindMixed} {
		for _, frac := range []float64{0.002, 0.02} {
			b := delta.Synthesize(el, frac, kind, 42)
			t.Run(kind.String(), func(t *testing.T) {
				checkRepair(t, el, shape, 32, opts, source, b)
			})
		}
	}
}

func TestRepairShapesAndExchanges(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	source := repairSource(el)
	b := delta.Synthesize(el, 0.01, delta.KindMixed, 7)
	shapes := []ClusterShape{
		{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 2},
		{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2},
	}
	exchanges := []Exchange{ExchangeAllPairs, ExchangeButterfly}
	for _, shape := range shapes {
		for _, ex := range exchanges {
			opts := repairOptions()
			opts.Exchange = ex
			t.Run(shape.String()+"/"+ex.String(), func(t *testing.T) {
				checkRepair(t, el, shape, 32, opts, source, b)
			})
		}
	}
}

// TestRepairLargeDelta stresses the wave when most of the tree is voided —
// repair must still converge to the exact recompute.
func TestRepairLargeDelta(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	b := delta.Synthesize(el, 0.10, delta.KindMixed, 3)
	opts := repairOptions()
	checkRepair(t, el, ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}, 32, opts, repairSource(el), b)
}

func TestRepairEmptyDelta(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}
	opts := repairOptions()
	sep := partition.Separate(el, 32)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanEpoch(sg, shape, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	source := repairSource(el)
	prior, err := p.Run(ctx, source, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	invalid := make([]bool, sg.N)
	rep, err := p.RunRepair(ctx, source, prior.Levels, invalid, nil, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 0 {
		t.Fatalf("empty delta ran %d wave iterations, want 0", rep.Iterations)
	}
	for v := range prior.Levels {
		if rep.Levels[v] != prior.Levels[v] || rep.Parents[v] != prior.Parents[v] {
			t.Fatalf("empty delta changed vertex %d", v)
		}
	}
}

func TestRepairValidation(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := ClusterShape{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 2}
	sep := partition.Separate(el, 32)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanEpoch(sg, shape, repairOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	source := repairSource(el)
	prior, err := p.Run(ctx, source, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	invalid := make([]bool, sg.N)
	if _, err := p.RunRepair(ctx, source, prior.Levels[:1], invalid, nil, Overrides{}); err == nil {
		t.Fatal("short prior accepted")
	}
	if _, err := p.RunRepair(ctx, source, prior.Levels, invalid[:1], nil, Overrides{}); err == nil {
		t.Fatal("short invalid mask accepted")
	}
	if _, err := p.RunRepair(ctx, source, prior.Levels, invalid, []int64{-1}, Overrides{}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	bad := make([]bool, sg.N)
	bad[source] = true
	if _, err := p.RunRepair(ctx, source, prior.Levels, bad, nil, Overrides{}); err == nil {
		t.Fatal("invalidated source accepted")
	}
	other := (source + 1) % sg.N
	if _, err := p.RunRepair(ctx, other, prior.Levels, invalid, nil, Overrides{}); err == nil {
		t.Fatal("prior not rooted at source accepted")
	}
}
