package pagerank

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

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

func serialOf(el *graph.EdgeList, damping float64, iters int) []float64 {
	deg := el.OutDegrees()
	return Serial(el.N, func(yield func(u, v int64)) {
		for _, e := range el.Edges {
			yield(e.U, e.V)
		}
	}, deg, damping, iters)
}

func checkClose(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > tol {
			t.Fatalf("vertex %d: %.12g vs %.12g", v, got[v], want[v])
		}
	}
}

func TestMatchesSerialOnRMAT(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	want := serialOf(el, 0.85, 20)
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
			checkClose(t, res.Ranks, want, 1e-9)
			if res.Iterations != 20 {
				t.Fatalf("iterations = %d", res.Iterations)
			}
		}
	}
}

func TestMatchesSerialOnStructuredGraphs(t *testing.T) {
	for _, el := range []*graph.EdgeList{
		gen.Path(40),
		gen.Star(30),
		gen.Grid2D(6, 7),
		gen.SocialNetwork(gen.DefaultSocialParams(8)),
	} {
		want := serialOf(el, 0.85, 15)
		shape := core.ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}
		sg := buildSub(t, el, shape, 4)
		opts := DefaultOptions()
		opts.MaxIterations = 15
		res, err := Run(sg, shape, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkClose(t, res.Ranks, want, 1e-9)
	}
}

func TestMassConservation(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1}
	sg := buildSub(t, el, shape, 16)
	res, err := Run(sg, shape, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank mass = %.12f, want 1", sum)
	}
}

func TestHubGetsHighestRank(t *testing.T) {
	el := gen.Star(50)
	shape := core.ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}
	sg := buildSub(t, el, shape, 5) // hub is a delegate
	res, err := Run(sg, shape, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 50; v++ {
		if res.Ranks[v] >= res.Ranks[0] {
			t.Fatalf("leaf %d rank %.6g ≥ hub rank %.6g", v, res.Ranks[v], res.Ranks[0])
		}
	}
}

func TestToleranceStopsEarly(t *testing.T) {
	el := gen.Cycle(64) // symmetric: converges immediately
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 1}
	sg := buildSub(t, el, shape, 8)
	opts := DefaultOptions()
	opts.MaxIterations = 50
	opts.Tolerance = 1e-12
	res, err := Run(sg, shape, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 50 {
		t.Fatalf("tolerance did not stop early: %d iterations", res.Iterations)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1}
	sg := buildSub(t, el, shape, 8)
	a, err := Run(sg, shape, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sg, shape, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Ranks {
		if a.Ranks[v] != b.Ranks[v] {
			t.Fatalf("vertex %d: %.17g vs %.17g (bit-level nondeterminism)", v, a.Ranks[v], b.Ranks[v])
		}
	}
	if a.SimSeconds != b.SimSeconds {
		t.Fatal("sim time nondeterministic")
	}
}

// The §VI-D traffic claim: PageRank's delegate reduction carries 64 bits per
// delegate versus BFS's single bit, and normal pairs carry 12 bytes vs 4.
func TestTrafficHeavierThanBFS(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}
	sg := buildSub(t, el, shape, 8)
	res, err := Run(sg, shape, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesDelegate != int64(res.Iterations)*sg.D()*8 {
		t.Fatalf("delegate bytes %d, want %d", res.BytesDelegate, int64(res.Iterations)*sg.D()*8)
	}
	if res.BytesNormal == 0 {
		t.Fatal("no normal traffic counted")
	}
	if res.Parts.Computation <= 0 {
		t.Fatal("no computation charged")
	}
}

func TestRejectsMismatchedShape(t *testing.T) {
	el := gen.Path(10)
	sg := buildSub(t, el, core.ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 1}, 4)
	if _, err := Run(sg, core.ClusterShape{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 4}, DefaultOptions()); err == nil {
		t.Fatal("accepted mismatched shape")
	}
}

// scoresDigest hashes the scores bit for bit: a float sum's last bits depend on
// the order its terms arrive in.
func scoresDigest(scores []float64) string {
	h := sha256.New()
	for _, s := range scores {
		binary.Write(h, binary.LittleEndian, math.Float64bits(s))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestModelledCostPinned holds the shared dense loop to the statistics the
// program's own loop reported before the two were merged (RMAT 10, 2×2×2),
// for a full-budget run and for one a tolerance ends early, and on an odd rank
// count (3×1×2) to the statistics the loop reported before its pair exchange
// moved into core's pair round; every row pins the scores from then too.
func TestModelledCostPinned(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	for _, want := range []struct {
		shape     core.ClusterShape
		tolerance float64
		stats     dense.Stats
		scores    string
	}{
		{core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}, 0, dense.Stats{
			Iterations: 20,
			SimSeconds: 0.000606626321262175,
			Parts: metrics.Breakdown{
				Computation:    0.00018079808080808074,
				LocalComm:      0.000163292,
				RemoteNormal:   6.114660961457514e-05,
				RemoteDelegate: 0.00026466895912234743,
			},
			BytesNormal:   41280,
			BytesDelegate: 55520,
		}, "62fd10d145818a8e"},
		{core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}, 1e-4, dense.Stats{
			Iterations: 9,
			SimSeconds: 0.00027298184456797875,
			Parts: metrics.Breakdown{
				Computation:    8.135913636363636e-05,
				LocalComm:      7.34814e-05,
				RemoteNormal:   2.751597432655883e-05,
				RemoteDelegate: 0.0001191010316050563,
			},
			BytesNormal:   18576,
			BytesDelegate: 24984,
		}, "c5215923b5b926cc"},
		{core.ClusterShape{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2}, 0, dense.Stats{
			Iterations: 20,
			SimSeconds: 0.0006113925583378446,
			Parts: metrics.Breakdown{
				Computation:    0.00018799195959595956,
				LocalComm:      0.00016331999999999997,
				RemoteNormal:   6.120882547812311e-05,
				RemoteDelegate: 0.00026466895912234743,
			},
			BytesNormal:   39840,
			BytesDelegate: 55520,
		}, "825418eec9f60ad8"},
	} {
		opts := DefaultOptions()
		opts.Tolerance = want.tolerance
		res, err := Run(buildSub(t, el, want.shape, 16), want.shape, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := scoresDigest(res.Ranks); res.Stats != want.stats || got != want.scores {
			t.Errorf("%+v, tolerance %g: stats %#v, scores %s", want.shape, want.tolerance, res.Stats, got)
		}
	}
}
