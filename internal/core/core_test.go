package core

import (
	"context"
	"math/rand"
	"testing"

	"gcbfs/internal/baseline"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
)

// buildPlan partitions el for the shape/threshold and returns the plan.
func buildPlan(t testing.TB, el *graph.EdgeList, shape ClusterShape, th int64, opts Options) *Plan {
	t.Helper()
	sep := partition.Separate(el, th)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPlan(sg, shape, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkAgainstSerial runs the engine and the serial reference from the same
// source and requires identical hop distances.
func checkAgainstSerial(t *testing.T, el *graph.EdgeList, e *Plan, source int64) *metrics.RunResult {
	t.Helper()
	res, err := e.Run(context.Background(), source, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.SerialBFS(graph.BuildCSR(el), source)
	if len(res.Levels) != len(want) {
		t.Fatalf("levels length %d, want %d", len(res.Levels), len(want))
	}
	for v := range want {
		if res.Levels[v] != want[v] {
			t.Fatalf("source %d: vertex %d level %d, want %d (shape %s)",
				source, v, res.Levels[v], want[v], e.Shape())
		}
	}
	return res
}

func TestClusterShape(t *testing.T) {
	s := ClusterShape{Nodes: 31, RanksPerNode: 2, GPUsPerRank: 2}
	if s.Ranks() != 62 || s.P() != 124 {
		t.Fatalf("Ranks=%d P=%d", s.Ranks(), s.P())
	}
	if s.String() != "31×2×2" {
		t.Fatalf("String = %q", s.String())
	}
	if (ClusterShape{}).Validate() == nil {
		t.Fatal("zero shape validated")
	}
}

func TestEngineRejectsMismatchedPartition(t *testing.T) {
	el := gen.Path(16)
	sep := partition.Separate(el, 100)
	sg, err := partition.Distribute(el, sep, partition.Config{Ranks: 2, GPUsPerRank: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(sg, ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1}, DefaultOptions()); err == nil {
		t.Fatal("accepted mismatched shape")
	}
}

func TestRunRejectsBadSource(t *testing.T) {
	el := gen.Path(8)
	e := buildPlan(t, el, ClusterShape{1, 1, 1}, 100, DefaultOptions())
	if _, err := e.Run(context.Background(), -1, Overrides{}); err == nil {
		t.Fatal("accepted negative source")
	}
	if _, err := e.Run(context.Background(), 8, Overrides{}); err == nil {
		t.Fatal("accepted out-of-range source")
	}
}

func TestPathSingleGPU(t *testing.T) {
	el := gen.Path(33)
	e := buildPlan(t, el, ClusterShape{1, 1, 1}, 100, DefaultOptions())
	res := checkAgainstSerial(t, el, e, 0)
	if res.Iterations != 33 {
		t.Fatalf("path BFS iterations = %d, want 33", res.Iterations)
	}
}

func TestPathDistributed(t *testing.T) {
	el := gen.Path(50)
	for _, shape := range []ClusterShape{{2, 1, 1}, {1, 2, 2}, {3, 1, 2}} {
		e := buildPlan(t, el, shape, 100, DefaultOptions())
		checkAgainstSerial(t, el, e, 7)
	}
}

func TestStarDelegateSource(t *testing.T) {
	el := gen.Star(40)
	// Hub has degree 39 > TH=5 → delegate; search from the delegate.
	e := buildPlan(t, el, ClusterShape{2, 1, 2}, 5, DefaultOptions())
	res := checkAgainstSerial(t, el, e, 0)
	if res.Iterations < 1 {
		t.Fatal("no iterations executed")
	}
	// And from a leaf (normal vertex) through the delegate.
	checkAgainstSerial(t, el, e, 17)
}

func TestGridAndCycle(t *testing.T) {
	grid := gen.Grid2D(9, 11)
	e := buildPlan(t, grid, ClusterShape{2, 2, 1}, 3, DefaultOptions())
	checkAgainstSerial(t, grid, e, 0)
	checkAgainstSerial(t, grid, e, 98)

	cyc := gen.Cycle(37)
	e2 := buildPlan(t, cyc, ClusterShape{1, 3, 1}, 1, DefaultOptions())
	checkAgainstSerial(t, cyc, e2, 36)
}

func TestDisconnectedAndIsolated(t *testing.T) {
	// Two components + an isolated vertex.
	el := graph.NewEdgeList(10)
	el.Add(0, 1)
	el.Add(1, 0)
	el.Add(2, 3)
	el.Add(3, 2)
	el.Add(3, 4)
	el.Add(4, 3)
	// 5..9 isolated.
	e := buildPlan(t, el, ClusterShape{2, 1, 2}, 1, DefaultOptions())
	res := checkAgainstSerial(t, el, e, 2)
	if res.Levels[0] != -1 || res.Levels[9] != -1 {
		t.Fatal("unreachable vertices must stay -1")
	}
	// Isolated source: exactly one iteration, then the >1-iteration
	// filter drops it (paper §VI-A3).
	res2, err := e.Run(context.Background(), 7, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.MultipleIterations() {
		t.Fatalf("isolated source ran %d iterations", res2.Iterations)
	}
}

func TestRMATAllShapesAndOptions(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shapes := []ClusterShape{{1, 1, 1}, {1, 1, 4}, {2, 2, 1}, {2, 1, 2}, {3, 2, 2}}
	optsList := map[string]Options{
		"dobfs": DefaultOptions(),
		"bfs":   PlainBFSOptions(),
		"dobfs+L+U": func() Options {
			o := DefaultOptions()
			o.LocalAll2All = true
			o.Uniquify = true
			return o
		}(),
		"dobfs+IR": func() Options {
			o := DefaultOptions()
			o.BlockingReduce = false
			return o
		}(),
	}
	deg := el.OutDegrees()
	sources := pickSources(deg, 3, 42)
	for _, shape := range shapes {
		for name, opts := range optsList {
			e := buildPlan(t, el, shape, 8, opts)
			for _, src := range sources {
				res := checkAgainstSerial(t, el, e, src)
				if res.Iterations <= 1 {
					t.Fatalf("%s/%s: suspicious %d iterations", shape, name, res.Iterations)
				}
			}
		}
	}
}

func TestThresholdExtremes(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	deg := el.OutDegrees()
	src := pickSources(deg, 1, 7)[0]
	// TH=0: every non-isolated vertex is a delegate (all edges dd).
	e0 := buildPlan(t, el, ClusterShape{2, 1, 2}, 0, DefaultOptions())
	checkAgainstSerial(t, el, e0, src)
	// TH=inf: no delegates (all edges nn).
	eInf := buildPlan(t, el, ClusterShape{2, 1, 2}, 1<<40, DefaultOptions())
	checkAgainstSerial(t, el, eInf, src)
}

func TestSocialAndWebGraphs(t *testing.T) {
	soc := gen.SocialNetwork(gen.DefaultSocialParams(9))
	deg := soc.OutDegrees()
	src := pickSources(deg, 1, 3)[0]
	e := buildPlan(t, soc, ClusterShape{1, 2, 2}, 16, DefaultOptions())
	checkAgainstSerial(t, soc, e, src)

	web := gen.WebGraph(gen.WebParams{Scale: 8, EdgeFactor: 8, NumChains: 3, ChainLength: 40, Seed: 9})
	deg2 := web.OutDegrees()
	src2 := pickSources(deg2, 1, 4)[0]
	e2 := buildPlan(t, web, ClusterShape{2, 1, 2}, 16, DefaultOptions())
	res := checkAgainstSerial(t, web, e2, src2)
	if res.Iterations < 30 {
		t.Fatalf("web graph should be long-tail, got %d iterations", res.Iterations)
	}
}

func TestDeterminism(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	e := buildPlan(t, el, ClusterShape{2, 1, 2}, 8, DefaultOptions())
	src := pickSources(el.OutDegrees(), 1, 11)[0]
	a, err := e.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if a.SimSeconds != b.SimSeconds || a.EdgesScanned != b.EdgesScanned || a.Iterations != b.Iterations {
		t.Fatalf("nondeterministic runs: %v/%v vs %v/%v",
			a.SimSeconds, a.EdgesScanned, b.SimSeconds, b.EdgesScanned)
	}
	for v := range a.Levels {
		if a.Levels[v] != b.Levels[v] {
			t.Fatalf("levels differ at %d", v)
		}
	}
}

func TestDOBFSReducesWorkOnRMAT(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(13))
	src := pickSources(el.OutDegrees(), 1, 5)[0]
	// Amplify into the paper's per-GPU workload regime (scale-26 per GPU);
	// local graph is scale-13 on 4 GPUs = scale-11 per GPU.
	doOpts := DefaultOptions()
	doOpts.WorkAmplification = 1 << 15
	plainOpts := PlainBFSOptions()
	plainOpts.WorkAmplification = 1 << 15
	eDO := buildPlan(t, el, ClusterShape{2, 1, 2}, 16, doOpts)
	ePlain := buildPlan(t, el, ClusterShape{2, 1, 2}, 16, plainOpts)
	rDO, err := eDO.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	rPlain, err := ePlain.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if rDO.EdgesScanned >= rPlain.EdgesScanned {
		t.Fatalf("DO did not reduce work: %d vs %d", rDO.EdgesScanned, rPlain.EdgesScanned)
	}
	if rDO.SimSeconds >= rPlain.SimSeconds {
		t.Fatalf("DO did not reduce simulated time: %g vs %g", rDO.SimSeconds, rPlain.SimSeconds)
	}
	// At least one backward iteration must have been chosen.
	sawBackward := false
	for _, it := range rDO.PerIteration {
		if it.DirDD == metrics.Backward || it.DirDN == metrics.Backward || it.DirND == metrics.Backward {
			sawBackward = true
		}
	}
	if !sawBackward {
		t.Fatal("DOBFS never switched to backward on RMAT")
	}
}

func TestUniquifyRemovesDuplicatesOnly(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	src := pickSources(el.OutDegrees(), 1, 13)[0]
	base := DefaultOptions()
	uniq := DefaultOptions()
	uniq.Uniquify = true
	e1 := buildPlan(t, el, ClusterShape{2, 2, 1}, 8, base)
	e2 := buildPlan(t, el, ClusterShape{2, 2, 1}, 8, uniq)
	r1 := checkAgainstSerial(t, el, e1, src)
	r2 := checkAgainstSerial(t, el, e2, src)
	var b1, b2 int64
	for _, it := range r1.PerIteration {
		b1 += it.BytesNormal
	}
	for _, it := range r2.PerIteration {
		b2 += it.BytesNormal
	}
	if r2.DupsRemoved > 0 && b2 >= b1 {
		t.Fatalf("uniquify removed %d dups but bytes did not shrink: %d vs %d", r2.DupsRemoved, b2, b1)
	}
	if r2.DupsRemoved == 0 && b2 != b1 {
		t.Fatal("no dups removed but bytes differ")
	}
}

func TestDelegateCommsSkippedWhenQuiet(t *testing.T) {
	// A path has no delegates at TH=100 → no delegate mask exchanges.
	el := gen.Path(40)
	e := buildPlan(t, el, ClusterShape{2, 1, 2}, 100, DefaultOptions())
	res, err := e.Run(context.Background(), 0, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DelegateComms != 0 {
		t.Fatalf("path with no delegates exchanged masks %d times", res.DelegateComms)
	}
	// RMAT with delegates: exchanges happen, but on fewer iterations
	// than the total (S' < S, §V-A).
	rm := rmat.Generate(rmat.DefaultParams(10))
	e2 := buildPlan(t, rm, ClusterShape{2, 1, 2}, 8, DefaultOptions())
	src := pickSources(rm.OutDegrees(), 1, 1)[0]
	res2, err := e2.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.DelegateComms == 0 {
		t.Fatal("RMAT run never exchanged delegate masks")
	}
	if res2.DelegateComms >= res2.Iterations {
		t.Fatalf("delegate comms %d not < iterations %d", res2.DelegateComms, res2.Iterations)
	}
}

func TestRunManyAndAggregate(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	e := buildPlan(t, el, ClusterShape{2, 1, 2}, 8, DefaultOptions())
	sources := pickSources(el.OutDegrees(), 5, 21)
	results, err := e.RunBatch(context.Background(), sources, 1, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	agg := metrics.AggregateRuns(results)
	if agg.Runs != 5 {
		t.Fatalf("agg.Runs = %d", agg.Runs)
	}
	if agg.GTEPS <= 0 {
		t.Fatal("aggregate GTEPS not positive")
	}
}

func TestBreakdownConsistency(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	shape := ClusterShape{4, 1, 2}
	opts := DefaultOptions()
	e := buildPlan(t, el, shape, 8, opts)
	src := pickSources(el.OutDegrees(), 1, 2)[0]
	res, err := e.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimSeconds <= 0 {
		t.Fatal("no simulated time")
	}
	// Sum of per-iteration elapsed equals the run total.
	var sum float64
	for _, it := range res.PerIteration {
		sum += it.Elapsed
	}
	if diff := sum - res.SimSeconds; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("per-iteration sum %g != total %g", sum, res.SimSeconds)
	}
	// Breakdown parts are all populated on a multi-rank RMAT run.
	if res.Parts.Computation <= 0 || res.Parts.RemoteDelegate <= 0 {
		t.Fatalf("missing parts: %+v", res.Parts)
	}
	// Overlap hides time, it never creates it: elapsed minus the fixed
	// per-iteration sync overhead (excluded from the parts by design)
	// cannot exceed the sum of parts.
	env := e.runOn(e.base)
	sync := env.syncOverhead() * float64(len(res.PerIteration))
	if res.SimSeconds-sync > res.Parts.Sum()*(1+1e-9) {
		t.Fatalf("elapsed %g minus sync %g exceeds parts sum %g",
			res.SimSeconds, sync, res.Parts.Sum())
	}
}

func TestCollectLevelsOff(t *testing.T) {
	el := gen.Path(10)
	opts := DefaultOptions()
	opts.CollectLevels = false
	e := buildPlan(t, el, ClusterShape{1, 1, 2}, 100, opts)
	res, err := e.Run(context.Background(), 0, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != nil {
		t.Fatal("levels collected despite CollectLevels=false")
	}
}

// pickSources returns count distinct vertices with nonzero degree.
func pickSources(deg []int64, count int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var out []int64
	seen := map[int64]bool{}
	for len(out) < count {
		v := rng.Int63n(int64(len(deg)))
		if deg[v] > 0 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
