package concomp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gcbfs/internal/core"
	"gcbfs/internal/dense"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
)

func buildSub(t testing.TB, el *graph.EdgeList, shape core.ClusterShape, th int64) *partition.Subgraphs {
	t.Helper()
	sep := partition.Separate(el, th)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

func serialOf(el *graph.EdgeList) []int64 {
	edges := make([][2]int64, el.M())
	for i, e := range el.Edges {
		edges[i] = [2]int64{e.U, e.V}
	}
	return SerialLabels(el.N, edges)
}

func checkLabels(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: label %d, want %d", v, got[v], want[v])
		}
	}
}

func TestMatchesUnionFindRMAT(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	want := serialOf(el)
	for _, shape := range []core.ClusterShape{
		{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 1},
		{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2},
		{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 1},
	} {
		for _, th := range []int64{0, 8, 1 << 40} {
			sg := buildSub(t, el, shape, th)
			res, err := Run(sg, shape, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge in %d iterations", res.Iterations)
			}
			checkLabels(t, res.Labels, want)
		}
	}
}

func TestStructuredGraphs(t *testing.T) {
	for _, el := range []*graph.EdgeList{
		gen.Path(50),
		gen.Star(40),
		gen.Grid2D(5, 9),
		gen.Cycle(33),
	} {
		want := serialOf(el)
		shape := core.ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}
		sg := buildSub(t, el, shape, 4)
		opts := DefaultOptions()
		opts.MaxIterations = 128 // the path needs ~diameter iterations
		res, err := Run(sg, shape, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		checkLabels(t, res.Labels, want)
	}
}

func TestMultipleComponents(t *testing.T) {
	// Three components: {0..4} path, {5,6} edge, {7} isolated.
	el := graph.NewEdgeList(8)
	for v := int64(0); v < 4; v++ {
		el.Add(v, v+1)
		el.Add(v+1, v)
	}
	el.Add(5, 6)
	el.Add(6, 5)
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1}
	sg := buildSub(t, el, shape, 2)
	res, err := Run(sg, shape, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 0, 0, 0, 0, 5, 5, 7}
	checkLabels(t, res.Labels, want)
}

func TestIterationBudgetExhaustion(t *testing.T) {
	el := gen.Path(100) // diameter 99 ≫ budget
	shape := core.ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}
	sg := buildSub(t, el, shape, 4)
	opts := DefaultOptions()
	opts.MaxIterations = 5
	res, err := Run(sg, shape, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("cannot converge on a long path in 5 iterations")
	}
	if res.Iterations != 5 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

// Property: distributed labels equal union-find on random symmetric graphs
// across random shapes and thresholds.
func TestQuickMatchesUnionFind(t *testing.T) {
	f := func(seed int64, ranksRaw, gpusRaw, thRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(rng.Intn(50) + 2)
		base := graph.NewEdgeList(n)
		for i := 0; i < rng.Intn(100); i++ {
			base.Add(rng.Int63n(n), rng.Int63n(n))
		}
		el := base.Symmetrize()
		shape := core.ClusterShape{
			Nodes:        int(ranksRaw%3) + 1,
			RanksPerNode: 1,
			GPUsPerRank:  int(gpusRaw%2) + 1,
		}
		sep := partition.Separate(el, int64(thRaw%8))
		sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
		if err != nil {
			return false
		}
		opts := DefaultOptions()
		opts.MaxIterations = 128
		res, err := Run(sg, shape, opts)
		if err != nil || !res.Converged {
			return false
		}
		want := serialOf(el)
		for v := range want {
			if res.Labels[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTrafficCounted(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}
	sg := buildSub(t, el, shape, 8)
	res, err := Run(sg, shape, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesDelegate == 0 || res.BytesNormal == 0 {
		t.Fatalf("traffic not counted: %d/%d", res.BytesDelegate, res.BytesNormal)
	}
	if res.SimSeconds <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestRejectsMismatchedShape(t *testing.T) {
	el := gen.Path(10)
	sg := buildSub(t, el, core.ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 1}, 4)
	if _, err := Run(sg, core.ClusterShape{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 4}, DefaultOptions()); err == nil {
		t.Fatal("accepted mismatched shape")
	}
}

// labelsDigest hashes the labels bit for bit.
func labelsDigest(labels []int64) string {
	h := sha256.New()
	for _, l := range labels {
		binary.Write(h, binary.LittleEndian, l)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestModelledCostPinned holds the shared dense loop to the statistics the
// program's own loop reported before the two were merged (RMAT 10, 2×2×2), and
// on an odd rank count (3×1×2) to the statistics and labels the loop reported
// before its pair exchange moved into core's pair round.
func TestModelledCostPinned(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	for _, want := range []struct {
		shape  core.ClusterShape
		stats  dense.Stats
		labels string
	}{
		{core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}, dense.Stats{
			Iterations: 5,
			SimSeconds: 0.0001503259068491776,
			Parts: metrics.Breakdown{
				Computation:    4.3290272727272725e-05,
				LocalComm:      4.079600000000001e-05,
				RemoteNormal:   1.5223989795863506e-05,
				RemoteDelegate: 6.616723978058684e-05,
			},
			BytesNormal:   8076,
			BytesDelegate: 13880,
		}, "88b698ff13804831"},
		{core.ClusterShape{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2}, dense.Stats{
			Iterations: 5,
			SimSeconds: 0.0001511203560014582,
			Parts: metrics.Breakdown{
				Computation:    4.44876494949495e-05,
				LocalComm:      4.0800600000000004e-05,
				RemoteNormal:   1.523554404915418e-05,
				RemoteDelegate: 6.616723978058684e-05,
			},
			BytesNormal:   7764,
			BytesDelegate: 13880,
		}, "88b698ff13804831"},
	} {
		res, err := Run(buildSub(t, el, want.shape, 16), want.shape, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := labelsDigest(res.Labels); !res.Converged || res.Stats != want.stats || got != want.labels {
			t.Errorf("%+v: converged %v, stats %#v, labels %s", want.shape, res.Converged, res.Stats, got)
		}
	}
}

// SerialLabels computes reference min-id component labels with union-find.
func SerialLabels(n int64, edges [][2]int64) []int64 {
	parent := make([]int64, n)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int64) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb { // union by min id keeps roots canonical
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for _, e := range edges {
		union(e[0], e[1])
	}
	labels := make([]int64, n)
	for v := int64(0); v < n; v++ {
		labels[v] = find(v)
	}
	return labels
}
