package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"gcbfs/internal/baseline"
	"gcbfs/internal/g500"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
)

// Property: on arbitrary random symmetric graphs, shapes and thresholds, the
// engine's distances match serial BFS and pass the Graph500-style validator;
// iteration count equals the source's eccentricity + 1; per-iteration
// frontier sizes sum to the visited count.
func TestQuickEngineInvariants(t *testing.T) {
	f := func(seed int64, shapeRaw, thRaw uint8, doRaw bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(rng.Intn(80) + 2)
		base := graph.NewEdgeList(n)
		for i := 0; i < rng.Intn(200); i++ {
			base.Add(rng.Int63n(n), rng.Int63n(n))
		}
		el := base.Symmetrize()
		shapes := []ClusterShape{
			{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 1},
			{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 1},
			{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2},
			{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2},
		}
		shape := shapes[int(shapeRaw)%len(shapes)]
		opts := DefaultOptions()
		opts.DirectionOptimized = doRaw
		opts.CollectParents = true
		deg := el.OutDegrees()
		src := rng.Int63n(n)
		if deg[src] == 0 {
			return true // isolated source exercised elsewhere
		}

		sepTh := int64(thRaw % 12)
		e := buildPlanQuiet(el, shape, sepTh, opts)
		if e == nil {
			return false
		}
		res, err := e.Run(context.Background(), src, Overrides{})
		if err != nil {
			return false
		}
		want := baseline.SerialBFS(graph.BuildCSR(el), src)
		if g500.CompareLevels(res.Levels, want) != nil {
			return false
		}
		if g500.Validate(el, src, res.Levels) != nil {
			return false
		}
		if validateTree(el, src, res.Parents, res.Levels) != nil {
			return false
		}
		// Eccentricity check: max level + 1 iterations performed, plus
		// one trailing iteration that discovers nothing.
		var maxLevel int32
		for _, l := range want {
			if l > maxLevel {
				maxLevel = l
			}
		}
		if res.Iterations != int(maxLevel)+1 {
			return false
		}
		// Frontier conservation: input frontier sizes over all
		// iterations equal the visited count.
		var frontierSum int64
		for _, it := range res.PerIteration {
			frontierSum += it.FrontierNormals + it.FrontierDelegates
		}
		return frontierSum == g500.VisitedCount(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// buildPlanQuiet is buildPlan without the testing.TB plumbing (for use
// inside quick.Check closures).
func buildPlanQuiet(el *graph.EdgeList, shape ClusterShape, th int64, opts Options) *Plan {
	sep := partition.Separate(el, th)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		return nil
	}
	e, err := NewPlan(sg, shape, opts)
	if err != nil {
		return nil
	}
	return e
}

// Per-iteration parts must be non-negative and elapsed must dominate the
// largest single component (overlap can hide time, never create it).
func TestIterationTimingInvariants(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	src := pickSources(el.OutDegrees(), 1, 6)[0]
	for _, shape := range []ClusterShape{{1, 1, 4}, {4, 2, 2}} {
		e := buildPlan(t, el, shape, 8, DefaultOptions())
		res, err := e.Run(context.Background(), src, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range res.PerIteration {
			p := it.Parts
			for _, v := range []float64{p.Computation, p.LocalComm, p.RemoteNormal, p.RemoteDelegate} {
				if v < 0 {
					t.Fatalf("negative component: %+v", p)
				}
			}
			biggest := p.Computation
			for _, v := range []float64{p.LocalComm, p.RemoteNormal, p.RemoteDelegate} {
				if v > biggest {
					biggest = v
				}
			}
			if it.Elapsed < biggest {
				t.Fatalf("elapsed %g below largest component %g", it.Elapsed, biggest)
			}
			if it.Elapsed > p.Sum()+1e-3 {
				t.Fatalf("elapsed %g above parts sum %g + sync", it.Elapsed, p.Sum())
			}
		}
	}
}

// Amplification must scale simulated time roughly linearly once work
// dominates overhead, and must never change functional results.
func TestAmplificationScalesTimeOnly(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(11))
	src := pickSources(el.OutDegrees(), 1, 8)[0]
	base := DefaultOptions()
	big := DefaultOptions()
	big.WorkAmplification = 1024
	e1 := buildPlan(t, el, ClusterShape{2, 1, 2}, 8, base)
	e2 := buildPlan(t, el, ClusterShape{2, 1, 2}, 8, big)
	r1, err := e1.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.SimSeconds <= r1.SimSeconds {
		t.Fatalf("amplification did not increase time: %g vs %g", r2.SimSeconds, r1.SimSeconds)
	}
	if r1.EdgesScanned != r2.EdgesScanned || r1.Iterations != r2.Iterations {
		t.Fatal("amplification changed functional counters")
	}
	for v := range r1.Levels {
		if r1.Levels[v] != r2.Levels[v] {
			t.Fatal("amplification changed distances")
		}
	}
}

// Message packing size influences remote-normal time the way §VI-A1
// describes: tiny packing is slower than the 4 MB optimum for bulk traffic.
func TestMessageBytesOptionMatters(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(12))
	src := pickSources(el.OutDegrees(), 1, 10)[0]
	mk := func(msg int64) *metrics.RunResult {
		opts := DefaultOptions()
		opts.MessageBytes = msg
		opts.WorkAmplification = 1 << 14
		// High TH → nn-heavy graph → remote exchange dominates.
		e := buildPlan(t, el, ClusterShape{4, 2, 1}, 1<<40, opts)
		r, err := e.Run(context.Background(), src, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	tiny := mk(64 << 10)
	tuned := mk(4 << 20)
	if tuned.Parts.RemoteNormal >= tiny.Parts.RemoteNormal {
		t.Fatalf("4MB packing (%g) not faster than 64kB (%g)",
			tuned.Parts.RemoteNormal, tiny.Parts.RemoteNormal)
	}
}

// All-delegate and no-delegate extremes must exchange bytes on exactly one
// of the two channels.
func TestChannelExtremes(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	src := pickSources(el.OutDegrees(), 1, 12)[0]

	allDel := buildPlan(t, el, ClusterShape{2, 1, 2}, 0, DefaultOptions())
	rAll, err := allDel.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	var normalBytes, delegateBytes int64
	for _, it := range rAll.PerIteration {
		normalBytes += it.BytesNormal
		delegateBytes += it.BytesDelegate
	}
	if normalBytes != 0 {
		t.Fatalf("TH=0 produced %d normal-exchange bytes", normalBytes)
	}
	if delegateBytes == 0 {
		t.Fatal("TH=0 produced no delegate traffic")
	}

	noDel := buildPlan(t, el, ClusterShape{2, 1, 2}, 1<<40, DefaultOptions())
	rNone, err := noDel.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	normalBytes, delegateBytes = 0, 0
	for _, it := range rNone.PerIteration {
		normalBytes += it.BytesNormal
		delegateBytes += it.BytesDelegate
	}
	if delegateBytes != 0 {
		t.Fatalf("TH=inf produced %d delegate bytes", delegateBytes)
	}
	if normalBytes == 0 {
		t.Fatal("TH=inf produced no normal traffic on a 4-GPU run")
	}
}
