package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/faults"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// checkRepair runs the full repair property: build epoch 1, run a prior
// query, apply the delta, build epoch 2 incrementally beside it, and require
// the repair's levels AND parents to be bit-identical to a full recompute on
// the new epoch. It returns Repair's result.
func checkRepair(t *testing.T, el *graph.EdgeList, shape ClusterShape, th int64, opts Options, source int64, b *delta.Batch) *metrics.RunResult {
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

	// The same repair three ways: Repair, which patches the prior tree unless
	// the full resolution reads less; the same input with the full resolution
	// forced over the copied prior arrays; and the frozen RunRepair, which has
	// no prior tree to start from.
	invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
	pt := Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}
	patched, err := p2.Repair(ctx, pt, invalid, b.Inserts, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := p2.repair(ctx, opts, &repairIn{source: source, levels: prior.Levels, parents: prior.Parents,
		invalid: invalid, seeds: seeds, full: true})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := p2.RunRepair(ctx, source, prior.Levels, invalid, seeds, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*metrics.RunResult{"Repair": patched, "forced full": forced, "RunRepair": wrapped} {
		if rep.Epoch != 2 {
			t.Fatalf("%s: epoch %d, want 2", name, rep.Epoch)
		}
		requireSameTree(t, fmt.Sprintf("shape %s, %s", shape, name), rep, full)
	}
	return patched
}

// requireSameTree fails unless got's levels and parents equal want's entry for
// entry.
func requireSameTree(t *testing.T, what string, got, want *metrics.RunResult) {
	t.Helper()
	if len(got.Levels) != len(want.Levels) || len(got.Parents) != len(want.Parents) {
		t.Fatalf("%s: %d levels and %d parents, want %d and %d", what, len(got.Levels), len(got.Parents), len(want.Levels), len(want.Parents))
	}
	for v := range want.Levels {
		if got.Levels[v] != want.Levels[v] {
			t.Fatalf("%s: vertex %d level %d, recompute %d", what, v, got.Levels[v], want.Levels[v])
		}
	}
	for v := range want.Parents {
		if got.Parents[v] != want.Parents[v] {
			t.Fatalf("%s: vertex %d (level %d) parent %d, recompute %d", what, v, want.Levels[v], got.Parents[v], want.Parents[v])
		}
	}
}

// TestWholeGraphRepairIsForwardBFS pins the repair wave to the BFS superstep:
// a prior that voids every vertex but the root leaves the probe to give the
// root's neighbors level 1 from the root's preloaded 0 — the root is a
// delegate, which every neighbor reads through the replicated tier — and that
// is what the forward BFS's first superstep does. The wave then replaces the
// BFS's remaining supersteps one for one and must cost, superstep by
// superstep, exactly what the Plan.Run superstep of the same level without
// direction optimization costs — on a plan with direction optimization too,
// since a repair never runs backward.
func TestWholeGraphRepairIsForwardBFS(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	source := repairSource(el)
	ctx := context.Background()
	for _, shape := range []ClusterShape{{2, 1, 1}, {2, 1, 2}, {3, 1, 4}} {
		for _, ex := range []Exchange{ExchangeAllPairs, ExchangeButterfly} {
			t.Run(shape.String()+"/"+ex.String(), func(t *testing.T) {
				opts := PlainBFSOptions()
				opts.Exchange = ex
				plain := buildPlan(t, el, shape, 32, opts)
				full, err := plain.Run(ctx, source, Overrides{})
				if err != nil {
					t.Fatal(err)
				}
				doOpts := DefaultOptions()
				doOpts.Exchange = ex
				do, err := NewPlan(plain.Graph(), shape, doOpts)
				if err != nil {
					t.Fatal(err)
				}
				if !plain.Graph().Sep.IsDelegate(source) {
					t.Fatal("test setup: the root is not a delegate")
				}
				n := plain.Graph().N
				prior, parents, invalid := make([]int32, n), make([]int64, n), make([]bool, n)
				for v := range prior {
					prior[v], parents[v], invalid[v] = -1, -1, true
				}
				prior[source], parents[source], invalid[source] = 0, source, false
				for name, p := range map[string]*Plan{"plain": plain, "direction-optimized": do} {
					rep, err := p.Repair(ctx, Prior{Source: source, Levels: prior, Parents: parents}, invalid, nil, Overrides{})
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(rep.Levels, full.Levels) {
						t.Fatalf("%s: whole-graph repair levels differ from the forward BFS", name)
					}
					if rep.Iterations == 0 {
						t.Fatalf("%s: whole-graph repair ran no superstep", name)
					}
					first := rep.PerIteration[0].Iteration
					if first != 1 || rep.Iterations != full.Iterations-first {
						t.Fatalf("%s: whole-graph repair ran %d supersteps from level %d, forward BFS %d from level 0: the probe did not pull level 1",
							name, rep.Iterations, first, full.Iterations)
					}
					for i, got := range rep.PerIteration {
						want := full.PerIteration[first+i]
						if got.Iteration != want.Iteration || got.Parts != want.Parts || got.EdgesScanned != want.EdgesScanned {
							t.Errorf("%s: wave superstep %d (level %d) scanned %d edges and charged %+v, forward BFS superstep %d %d and %+v",
								name, i, got.Iteration, got.EdgesScanned, got.Parts, want.Iteration, want.EdgesScanned, want.Parts)
						}
						if got.DirDD != metrics.Forward || got.DirDN != metrics.Forward || got.DirND != metrics.Forward {
							t.Errorf("%s: superstep %d ran dd/dn/nd %v/%v/%v, want all forward", name, i, got.DirDD, got.DirDN, got.DirND)
						}
					}
				}
			})
		}
	}
}

// TestRepairWaveIsProportional bounds what the wave scans by what it must: a
// forward superstep reads the whole row of each vertex in its frontier, and
// the frontier holds only vertices that are invalidated, re-levelled, or a
// seed — an insert endpoint whose edge shortens a path (delta.InsertSeeds) or
// a valid normal the probe reached across GPUs from an invalidated normal.
// The wave's EdgesScanned is therefore at most the out-degree sum over that
// set. Seeding the valid neighbors of invalidated vertices — delegate hubs
// most of them — instead breaks the bound.
func TestRepairWaveIsProportional(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(12))
	source := repairSource(el)
	ctx := context.Background()
	for _, shape := range []ClusterShape{{2, 2, 2}, {3, 1, 2}} {
		for _, frac := range []float64{0.001, 0.01} {
			for _, kind := range []delta.Kind{delta.KindInsert, delta.KindDelete, delta.KindMixed} {
				b := delta.Synthesize(el, frac, kind, 11)
				th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
				prior, p2 := nextEpoch(t, el, shape, th, repairOptions(), source, b)
				el2, err := delta.Apply(el, b)
				if err != nil {
					t.Fatal(err)
				}
				invalid := delta.Invalidated(prior.Levels, prior.Parents, b)
				rep, err := p2.Repair(ctx, Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}, invalid, b.Inserts, Overrides{})
				if err != nil {
					t.Fatal(err)
				}
				must := make([]bool, el.N)
				for _, v := range delta.InsertSeeds(prior.Levels, invalid, b.Inserts) {
					must[v] = true
				}
				cfg, sep, csr := shape.PartitionConfig(), p2.Graph().Sep, graph.BuildCSR(el2)
				for v := range must {
					if rep.Levels[v] != prior.Levels[v] || invalid[v] {
						must[v] = true
					}
					if !invalid[v] || sep.IsDelegate(int64(v)) {
						continue
					}
					for _, u := range csr.Neighbors(int64(v)) {
						if !invalid[u] && prior.Levels[u] >= 0 && !sep.IsDelegate(u) && cfg.OwnerGPU(u) != cfg.OwnerGPU(int64(v)) {
							must[u] = true
						}
					}
				}
				var bound int64
				for v, m := range must {
					if m {
						bound += int64(len(csr.Neighbors(int64(v))))
					}
				}
				if rep.EdgesScanned > bound {
					t.Errorf("%s, %s %g: the wave scanned %d edges, the rows it must read hold %d", shape, kind, frac, rep.EdgesScanned, bound)
				}
			}
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

// nextEpoch runs the prior query of source on el's plan and builds the epoch b
// makes of el incrementally beside it, both under opts.
func nextEpoch(t testing.TB, el *graph.EdgeList, shape ClusterShape, th int64, opts Options, source int64, b *delta.Batch) (*metrics.RunResult, *Plan) {
	t.Helper()
	p1 := buildPlan(t, el, shape, th, opts)
	prior, err := p1.Run(context.Background(), source, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	el2, err := delta.Apply(el, b)
	if err != nil {
		t.Fatal(err)
	}
	sg2, _, err := partition.DistributeIncremental(el2, partition.Separate(el2, th), shape.PartitionConfig(), p1.sg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlanEpoch(sg2, shape, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	return prior, p2
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

// TestRepairPatchesWhileItReadsLess holds the patch-or-full rule to its row
// counts: a repair whose re-pull set reads less than the full resolution
// patches the prior tree and sends fewer pairs than the same repair with the
// full resolution forced, and one that would read more resolves in full and
// sends exactly what the forced one sends.
func TestRepairPatchesWhileItReadsLess(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(12))
	shape := ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	opts := repairOptions()
	source := repairSource(el)
	ctx := context.Background()
	for _, tc := range []struct {
		frac  float64
		patch bool
	}{{0.001, true}, {0.3, false}} {
		b := delta.Synthesize(el, tc.frac, delta.KindMixed, 5)
		prior, p2 := nextEpoch(t, el, shape, 32, opts, source, b)
		invalid := delta.Invalidated(prior.Levels, prior.Parents, b)
		rep, err := p2.Repair(ctx, Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}, invalid, b.Inserts, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		in := &repairIn{source: source, levels: prior.Levels, parents: prior.Parents, invalid: invalid, full: true}
		in.addInserts(b.Inserts)
		forced, err := p2.repair(ctx, opts, in)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, fmt.Sprintf("%g delta", tc.frac), rep, forced)
		if patched := rep.ParentPairs < forced.ParentPairs; patched != tc.patch || (!tc.patch && rep.ParentPairs != forced.ParentPairs) {
			t.Fatalf("%g delta: the repair sent %d pairs, the forced full resolution %d; want the patch %v", tc.frac, rep.ParentPairs, forced.ParentPairs, tc.patch)
		}
	}
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
	rep, err := p.Repair(ctx, Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}, invalid, nil, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 0 {
		t.Fatalf("empty delta ran %d wave iterations, want 0", rep.Iterations)
	}
	if rep.ParentPairs != 0 {
		t.Fatalf("empty delta sent %d resolution pairs, want a pure copy", rep.ParentPairs)
	}
	requireSameTree(t, "empty delta", rep, prior)
	if &rep.Levels[0] == &prior.Levels[0] || &rep.Parents[0] == &prior.Parents[0] {
		t.Fatal("the repaired result aliases the prior's arrays")
	}
}

// TestRepairDegenerateDeltas: deltas whose wave has nothing to start from, or
// whose re-pull set holds the vertices an incremental resolver is most likely
// to mishandle.
func TestRepairDegenerateDeltas(t *testing.T) {
	shape := ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}
	opts := repairOptions()

	// A path cut in the middle: the tail is invalidated and has no valid
	// neighbor left, so the probe finds no seed and no wave runs.
	t.Run("no seed", func(t *testing.T) {
		for _, th := range []int64{1, 100} {
			rep := checkRepair(t, gen.Path(24), shape, th, opts, 0, &delta.Batch{Deletes: []graph.Edge{{U: 11, V: 12}}})
			if rep.Iterations != 0 || rep.ParentPairs != 0 {
				t.Fatalf("th %d: %d wave iterations and %d pairs, want none of either", th, rep.Iterations, rep.ParentPairs)
			}
			if rep.Levels[11] != 11 || rep.Levels[12] != -1 || rep.Parents[12] != -1 || rep.Parents[23] != -1 {
				t.Fatalf("th %d: the cut did not take: levels %v parents %v", th, rep.Levels, rep.Parents)
			}
		}
	})

	// The source loses its only edge — as a normal vertex and as a delegate's
	// neighbor — and every other vertex ends unreached, without a parent.
	t.Run("source cut off", func(t *testing.T) {
		for _, th := range []int64{1, 100} {
			rep := checkRepair(t, gen.Path(16), shape, th, opts, 0, &delta.Batch{Deletes: []graph.Edge{{U: 0, V: 1}}})
			for v := 1; v < 16; v++ {
				if rep.Levels[v] != -1 || rep.Parents[v] != -1 {
					t.Fatalf("th %d: vertex %d kept level %d parent %d", th, v, rep.Levels[v], rep.Parents[v])
				}
			}
			if rep.Levels[0] != 0 || rep.Parents[0] != 0 {
				t.Fatalf("th %d: root is (%d, %d)", th, rep.Levels[0], rep.Parents[0])
			}
		}
	})

	// Vertices that cross the degree threshold between the epochs, both ways,
	// inside the re-pull set: an insert promotes one from normal to delegate
	// (an insert endpoint), a deleted tree edge demotes another (invalidated).
	t.Run("threshold crossers", func(t *testing.T) {
		el := rmat.Generate(rmat.DefaultParams(8))
		source := repairSource(el)
		const th = 12
		deg := el.OutDegrees()
		p := buildPlan(t, el, shape, th, opts)
		prior, err := p.Run(context.Background(), source, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		b := &delta.Batch{}
		csr := graph.BuildCSR(el)
		for v := int64(0); v < el.N && (len(b.Inserts) == 0 || len(b.Deletes) == 0); v++ {
			switch {
			case len(b.Inserts) == 0 && deg[v] == th && prior.Levels[v] > 1 && !slices.Contains(csr.Neighbors(v), source):
				b.Inserts = append(b.Inserts, graph.Edge{U: v, V: source})
			case len(b.Deletes) == 0 && deg[v] == th+1 && prior.Levels[v] >= 1 && v != source:
				b.Deletes = append(b.Deletes, graph.Edge{U: v, V: prior.Parents[v]})
			}
		}
		if len(b.Inserts) == 0 || len(b.Deletes) == 0 {
			t.Fatal("test setup: no vertex sits at the threshold")
		}
		up, down := b.Inserts[0].U, b.Deletes[0].U
		el2, err := delta.Apply(el, b)
		if err != nil {
			t.Fatal(err)
		}
		before, after := partition.Separate(el, th), partition.Separate(el2, th)
		if before.IsDelegate(up) || !after.IsDelegate(up) || !before.IsDelegate(down) || after.IsDelegate(down) {
			t.Fatalf("test setup: %d was not promoted or %d not demoted", up, down)
		}
		checkRepair(t, el, shape, th, opts, source, b)
	})
}

// TestSeedKeysSortLikeTheComparator holds the seed schedule's one-word keys to
// the (level, id) comparator sort they replaced: the same order and the same
// deduplication.
func TestSeedKeysSortLikeTheComparator(t *testing.T) {
	type seed struct {
		level int32
		id    uint32
	}
	rng := rand.New(rand.NewSource(5))
	var seeds []seed
	var keys []uint64
	for i := 0; i < 5000; i++ {
		s := seed{level: int32(rng.Intn(40)), id: uint32(rng.Intn(300))}
		if i%7 == 0 {
			s.id = ^uint32(0) - uint32(rng.Intn(3)) // ids with the top bit set
		}
		seeds = append(seeds, s)
		keys = append(keys, seedKey(s.level, s.id))
	}
	slices.SortFunc(seeds, func(a, b seed) int {
		if c := cmp.Compare(a.level, b.level); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	seeds = slices.Compact(seeds)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	if len(keys) != len(seeds) || len(keys) == 5000 {
		t.Fatalf("%d keys, %d seeds after deduplication of 5000", len(keys), len(seeds))
	}
	for i, k := range keys {
		if got := (seed{seedLevel(k), uint32(k)}); got != seeds[i] {
			t.Fatalf("entry %d: key order has %+v, comparator order %+v", i, got, seeds[i])
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
	bad := make([]bool, sg.N)
	bad[source] = true
	other := (source + 1) % sg.N
	unrooted := slices.Clone(prior.Parents)
	unrooted[source] = other
	sessions := p.PoolStats()

	// The frozen entry point.
	if _, err := p.RunRepair(ctx, source, prior.Levels[:1], invalid, nil, Overrides{}); err == nil {
		t.Fatal("short prior accepted")
	}
	if _, err := p.RunRepair(ctx, source, prior.Levels, invalid[:1], nil, Overrides{}); err == nil {
		t.Fatal("short invalid mask accepted")
	}
	if _, err := p.RunRepair(ctx, source, prior.Levels, invalid, []int64{-1}, Overrides{}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	if _, err := p.RunRepair(ctx, source, prior.Levels, bad, nil, Overrides{}); err == nil {
		t.Fatal("invalidated source accepted")
	}
	if _, err := p.RunRepair(ctx, other, prior.Levels, invalid, nil, Overrides{}); err == nil {
		t.Fatal("prior not rooted at source accepted")
	}

	// Repair: the same, and what the prior tree and the inserts add.
	good := Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}
	for name, tc := range map[string]struct {
		prior   Prior
		invalid []bool
		inserts []graph.Edge
	}{
		"source out of range":          {Prior{sg.N, prior.Levels, prior.Parents}, invalid, nil},
		"short prior levels":           {Prior{source, prior.Levels[:1], prior.Parents}, invalid, nil},
		"short prior parents":          {Prior{source, prior.Levels, prior.Parents[:sg.N-1]}, invalid, nil},
		"no prior parents":             {Prior{source, prior.Levels, nil}, invalid, nil},
		"short invalid mask":           {good, invalid[:1], nil},
		"invalidated source":           {good, bad, nil},
		"levels not rooted at source":  {Prior{other, prior.Levels, prior.Parents}, invalid, nil},
		"parents not rooted at source": {Prior{source, prior.Levels, unrooted}, invalid, nil},
		"insert endpoint negative":     {good, invalid, []graph.Edge{{U: -1, V: source}}},
		"insert endpoint past the end": {good, invalid, []graph.Edge{{U: source, V: sg.N}}},
	} {
		if _, err := p.Repair(ctx, tc.prior, tc.invalid, tc.inserts, Overrides{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got := p.PoolStats(); got != sessions {
		t.Fatalf("a rejected repair acquired a session: pool %+v, before %+v", got, sessions)
	}
	if _, err := p.Repair(ctx, good, invalid, nil, Overrides{}); err != nil {
		t.Fatalf("the valid input next to them is rejected: %v", err)
	}
}

// TestRepairPatchFaultsSurfaceTypedErrors corrupts the patch's two pair rounds
// — offers out, answers back — one injector seed at a time, and requires what
// every other payload site gives: a hit is the typed wire.ErrCorrupt naming
// the panic site and no result, a miss the bit-identical tree. The injector's
// decisions are a pure function of (seed, rank, round), so the test knows
// beforehand which round a seed hits first, and asks for seeds of each kind.
func TestRepairPatchFaultsSurfaceTypedErrors(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := ClusterShape{2, 2, 2}
	cfg := shape.PartitionConfig()
	sg, err := partition.Distribute(el, partition.Separate(el, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p1, err := NewPlanEpoch(sg, shape, chaosOptions(nil, ExchangeAllPairs), 1)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := p1.Run(ctx, 0, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	b := delta.Synthesize(el, 0.01, delta.KindMixed, 7)
	el2, err := delta.Apply(el, b)
	if err != nil {
		t.Fatal(err)
	}
	sg2, _, err := partition.DistributeIncremental(el2, partition.Separate(el2, 8), cfg, sg)
	if err != nil {
		t.Fatal(err)
	}
	pt := Prior{Source: 0, Levels: prior.Levels, Parents: prior.Parents}
	invalid := delta.Invalidated(prior.Levels, prior.Parents, b)
	repair := func(in *faults.Injector) (*metrics.RunResult, error) {
		p2, err := NewPlanEpoch(sg2, shape, chaosOptions(in, ExchangeAllPairs), 2)
		if err != nil {
			t.Fatal(err)
		}
		return p2.Repair(ctx, pt, invalid, b.Inserts, Overrides{})
	}
	clean, err := repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.ParentPairs == 0 {
		t.Fatal("test setup: the patch sent no pairs")
	}

	const rate = 0.2
	hits := map[string]int{}
	for seed := uint64(1); seed <= 48; seed++ {
		first := "none"
		for round := 1; round >= 0; round-- {
			for rank := 0; rank < shape.Ranks(); rank++ {
				probe := faults.New(seed, faults.KindCorrupt, rate).WithSites(faults.SiteParents)
				if probe.Payload(rank, round, faults.SiteParents, []byte{0}); probe.Injected() > 0 {
					first = [2]string{"offers", "answers"}[round]
				}
			}
		}
		hits[first]++
		r, err := repair(faults.New(seed, faults.KindCorrupt, rate).WithSites(faults.SiteParents))
		if first == "none" {
			if err != nil {
				t.Fatalf("seed %d hits no round, yet: %v", seed, err)
			}
			requireSameTree(t, fmt.Sprintf("seed %d", seed), r, clean)
			continue
		}
		wantCorrupt(t, r != nil, err, "pair payload")
	}
	if hits["offers"] == 0 || hits["answers"] == 0 || hits["none"] == 0 {
		t.Fatalf("seeds by first round hit: %v, want some of each", hits)
	}
}

// BenchmarkRepairResolve times a repair's finisher alone, on the shape of the
// rmat16-mutable host workload (RMAT scale 16, 4×2×2, the default 4n/p
// threshold, a 0.1 % mixed delta): one repair leaves its wave's outcome in the
// session, then every iteration finishes it again on the rank goroutines — by
// patching the prior tree ("patch"), and with the full resolution forced over
// the same state ("full"). Beside ns/op, which is per repair, it reports |C| (vertices whose
// level the delta changed), |R| (the re-pull set), the row entries the
// resolution read as a share of the graph's directed edges — for "full", the
// dd entries its direction-optimised pass read plus every nd and nn row — and
// the pairs it sent — and what the wave before it scanned as a share of the
// graph's directed edges, from how many seeds. The benchmark fails when the
// wave scans more than maxWaveEdges of m: it starts where a level can change,
// so it reads little more than the rows it re-levels.
func BenchmarkRepairResolve(b *testing.B) {
	el := rmat.Generate(rmat.DefaultParams(16))
	shape := ClusterShape{4, 2, 2}
	cfg := shape.PartitionConfig()
	th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
	opts := repairOptions()
	sg, err := partition.Distribute(el, partition.Separate(el, th), cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	p1, err := NewPlanEpoch(sg, shape, opts, 1)
	if err != nil {
		b.Fatal(err)
	}
	source := pickSources(el.OutDegrees(), 1, 5)[0]
	prior, err := p1.Run(ctx, source, Overrides{})
	if err != nil {
		b.Fatal(err)
	}
	batch := delta.Synthesize(el, 0.001, delta.KindMixed, 1)
	el2, err := delta.Apply(el, batch)
	if err != nil {
		b.Fatal(err)
	}
	sg2, _, err := partition.DistributeIncremental(el2, partition.Separate(el2, th), cfg, sg)
	if err != nil {
		b.Fatal(err)
	}
	p2, err := NewPlanEpoch(sg2, shape, opts, 2)
	if err != nil {
		b.Fatal(err)
	}
	invalid := delta.Invalidated(prior.Levels, prior.Parents, batch)

	for _, mode := range []string{"patch", "full"} {
		b.Run(mode, func(b *testing.B) {
			in := &repairIn{source: source, levels: prior.Levels, parents: prior.Parents, invalid: invalid, full: mode == "full"}
			in.addInserts(batch.Inserts)
			forward := opts
			forward.DirectionOptimized = false // as Plan.repair runs every repair
			s := p2.acquire(forward)
			defer p2.release(s)
			s.resetTraversal()
			out := treeOut{levels: slices.Clone(in.levels), parents: slices.Clone(in.parents)}
			res, err := s.traverse(ctx, source, out, func() error { return s.repairWave(ctx, in) })
			if err != nil {
				b.Fatal(err)
			}
			var changed, members, seeds int64
			for _, gs := range s.gpus {
				seeds += int64(len(gs.repSeeds))
			}
			seeds += int64(len(s.scratch[0].dSeeds))
			waveEdges := float64(res.EdgesScanned) / float64(sg2.M)
			if waveEdges > maxWaveEdges {
				b.Fatalf("the wave scanned %.4f of m from %d seeds, want at most %.4f", waveEdges, seeds, maxWaveEdges)
			}
			for v, l := range res.Levels {
				if l != prior.Levels[v] {
					changed++
				}
			}
			for _, gs := range s.gpus {
				members += int64(gs.repMembers)
			}
			members += s.scratch[0].members.Count()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, gs := range s.gpus {
					gs.rep = gs.rep[:gs.repMembers]
					clear(gs.parents)
				}
				s.parentExchangePairs = 0
				s.out = treeOut{levels: slices.Clone(in.levels), parents: slices.Clone(in.parents)}
				world := s.acquireWorld()
				b.StartTimer()
				err := RunRanks(world, nil, tagSite, func(rank int, comm *mpi.Comm) { s.finishRepair(rank, comm, in) })
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !slices.Equal(s.out.parents, res.Parents) || !slices.Equal(s.out.levels, res.Levels) {
				b.Fatal("finishing the same wave again gave another tree")
			}
			reads := int64(0)
			if mode == "patch" {
				for _, sc := range s.scratch {
					reads += sc.parents.patchReads
				}
			} else {
				reads = sg2.CountND + sg2.CountNN + ddPassReads(s)
			}
			b.ReportMetric(float64(changed), "|C|")
			b.ReportMetric(float64(members), "|R|")
			b.ReportMetric(float64(reads)/float64(sg2.M), "reads/m")
			b.ReportMetric(float64(s.parentExchangePairs), "pairs")
			b.ReportMetric(waveEdges, "wave-edges/m")
			b.ReportMetric(float64(seeds), "seeds")
		})
	}
}

// maxWaveEdges is BenchmarkRepairResolve's ceiling on the wave's scanned
// edges over m.
const maxWaveEdges = 0.01

// ddPassReads is the dd row entries the full resolution's direction-optimised
// dd pass reads over the session's delegate levels, on every GPU.
func ddPassReads(s *Session) (reads int64) {
	var ps parentScratch
	dLevel := s.scratch[0].dt.level
	push := ps.treeDirections(dLevel, s.sg.DelegateOutDeg)
	cand := ps.candidates(s.d)
	for _, gs := range s.gpus {
		reads += ddPass(gs.pg, dLevel, ps.tag, push, s.sg.Sep.DelegateGlobal, cand)
	}
	return reads
}

// TestRepairCollectOverrides: a repair collects what its query asks for — the
// tree is patched only when parents are, and the patch leaves levels alone
// when they are not.
func TestRepairCollectOverrides(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}
	cfg := shape.PartitionConfig()
	source := repairSource(el)
	ctx := context.Background()
	sg, err := partition.Distribute(el, partition.Separate(el, 16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlanEpoch(sg, shape, repairOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := p1.Run(ctx, source, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	b := delta.Synthesize(el, 0.005, delta.KindMixed, 9)
	el2, err := delta.Apply(el, b)
	if err != nil {
		t.Fatal(err)
	}
	sg2, _, err := partition.DistributeIncremental(el2, partition.Separate(el2, 16), cfg, sg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlanEpoch(sg2, shape, repairOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p2.Run(ctx, source, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	pt := Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}
	invalid := delta.Invalidated(prior.Levels, prior.Parents, b)
	on, off := true, false
	for name, ov := range map[string]Overrides{
		"levels only":  {CollectParents: &off},
		"parents only": {CollectLevels: &off},
		"neither":      {CollectLevels: &off, CollectParents: &off},
		"both":         {CollectLevels: &on, CollectParents: &on},
	} {
		rep, err := p2.Repair(ctx, pt, invalid, b.Inserts, ov)
		if err != nil {
			t.Fatal(err)
		}
		wantLevels := ov.CollectLevels == nil || *ov.CollectLevels
		wantParents := ov.CollectParents == nil || *ov.CollectParents
		if (rep.Levels != nil) != wantLevels || (rep.Parents != nil) != wantParents {
			t.Fatalf("%s: levels collected %v, parents collected %v", name, rep.Levels != nil, rep.Parents != nil)
		}
		if wantLevels && !slices.Equal(rep.Levels, full.Levels) {
			t.Fatalf("%s: levels differ from the recompute", name)
		}
		if wantParents && !slices.Equal(rep.Parents, full.Parents) {
			t.Fatalf("%s: parents differ from the recompute", name)
		}
	}
}
