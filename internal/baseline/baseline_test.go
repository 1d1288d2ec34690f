package baseline

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/rmat"
)

func TestSerialBFSPath(t *testing.T) {
	c := graph.BuildCSR(gen.Path(10))
	levels := SerialBFS(c, 0)
	for v := int64(0); v < 10; v++ {
		if levels[v] != int32(v) {
			t.Fatalf("levels[%d] = %d", v, levels[v])
		}
	}
	// From the middle.
	levels = SerialBFS(c, 5)
	if levels[0] != 5 || levels[9] != 4 {
		t.Fatalf("levels from 5: %v", levels)
	}
}

func TestSerialBFSDisconnected(t *testing.T) {
	el := graph.NewEdgeList(5)
	el.Add(0, 1)
	el.Add(1, 0)
	c := graph.BuildCSR(el)
	levels := SerialBFS(c, 0)
	if levels[2] != -1 || levels[4] != -1 {
		t.Fatal("unreachable vertices must be -1")
	}
	// Out-of-range source returns all -1.
	levels = SerialBFS(c, 99)
	for _, l := range levels {
		if l != -1 {
			t.Fatal("bad source should visit nothing")
		}
	}
}

// Property: BFS levels satisfy the triangle property — adjacent vertices
// differ by at most 1 level, and every visited non-source vertex has a
// neighbor one level closer (on symmetric graphs).
func TestQuickSerialBFSInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(rng.Intn(40) + 2)
		base := graph.NewEdgeList(n)
		for i := 0; i < rng.Intn(120); i++ {
			base.Add(rng.Int63n(n), rng.Int63n(n))
		}
		el := base.Symmetrize()
		c := graph.BuildCSR(el)
		src := rng.Int63n(n)
		levels := SerialBFS(c, src)
		if levels[src] != 0 {
			return false
		}
		for u := int64(0); u < n; u++ {
			if levels[u] < 0 {
				continue
			}
			hasParent := levels[u] == 0
			for _, v := range c.Neighbors(u) {
				if levels[v] < 0 {
					return false // symmetric graph: neighbor of visited must be visited
				}
				d := levels[u] - levels[v]
				if d > 1 || d < -1 {
					return false
				}
				if levels[v] == levels[u]-1 {
					hasParent = true
				}
			}
			if !hasParent && len(c.Neighbors(u)) > 0 {
				return false
			}
			if !hasParent && levels[u] > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelSizesAndFrontierEdges(t *testing.T) {
	c := graph.BuildCSR(gen.Star(6))
	levels := SerialBFS(c, 1) // leaf → hub → other leaves
	sizes := LevelSizes(levels)
	if len(sizes) != 3 || sizes[0] != 1 || sizes[1] != 1 || sizes[2] != 4 {
		t.Fatalf("sizes = %v", sizes)
	}
	fe := FrontierEdges(c, levels)
	if fe[0] != 1 || fe[1] != 5 || fe[2] != 4 {
		t.Fatalf("frontier edges = %v", fe)
	}
}

func TestOneDMatchesSerial(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	c := graph.BuildCSR(el)
	deg := el.OutDegrees()
	var src int64
	for deg[src] == 0 {
		src++
	}
	want := SerialBFS(c, src)
	for _, p := range []int{1, 3, 8} {
		res, err := OneD(c, src, p, false)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Levels[v] != want[v] {
				t.Fatalf("p=%d: level mismatch at %d", p, v)
			}
		}
		if p == 1 && res.CommBytes != 0 {
			t.Fatalf("p=1 should have no comm, got %d", res.CommBytes)
		}
		if p > 1 && res.CommBytes == 0 {
			t.Fatalf("p=%d: no communication counted", p)
		}
	}
}

func TestOneDBroadcastVolume(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	c := graph.BuildCSR(el)
	deg := el.OutDegrees()
	var src int64
	for deg[src] == 0 {
		src++
	}
	plain, err := OneD(c, src, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	do, err := OneD(c, src, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BroadcastBytes != 0 {
		t.Fatal("plain 1D should not broadcast")
	}
	// DO-capable 1D must broadcast every visited vertex to every peer:
	// 8 bytes × visited × (p-1).
	var visited int64
	for _, l := range do.Levels {
		if l >= 0 {
			visited++
		}
	}
	if do.BroadcastBytes != 8*visited*3 {
		t.Fatalf("BroadcastBytes = %d, want %d", do.BroadcastBytes, 8*visited*3)
	}
}

func TestOneDErrors(t *testing.T) {
	c := graph.BuildCSR(gen.Path(4))
	if _, err := OneD(c, 0, 0, false); err == nil {
		t.Fatal("accepted p=0")
	}
	if _, err := OneD(c, -1, 2, false); err == nil {
		t.Fatal("accepted bad source")
	}
}

func TestTwoDModel(t *testing.T) {
	// n=1024, levels: [1, 10, 100] vertices, switch at iteration 2.
	sizes := []int64{1, 10, 100}
	res, err := TwoDModel(1024, sizes, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	// √p = 4, log2 = 2: forward = 8·(1+10)·4·2 = 704.
	if res.ForwardBytes != 704 {
		t.Fatalf("ForwardBytes = %d", res.ForwardBytes)
	}
	// backward = 2·1024·1·4·2/8 = 2048.
	if res.BackwardBytes != 2048 {
		t.Fatalf("BackwardBytes = %d", res.BackwardBytes)
	}
	if res.TotalBytes() != 704+2048 {
		t.Fatal("TotalBytes wrong")
	}
	if res.ForwardIters != 2 || res.BackwardIters != 1 {
		t.Fatalf("iters = %d/%d", res.ForwardIters, res.BackwardIters)
	}
}

func TestTwoDModelErrors(t *testing.T) {
	if _, err := TwoDModel(10, []int64{1}, 0, 3); err == nil {
		t.Fatal("accepted non-square p")
	}
	if _, err := TwoDModel(10, []int64{1}, 0, 0); err == nil {
		t.Fatal("accepted p=0")
	}
}

// The paper's scaling argument (§II-B vs §V): under weak scaling (n and m
// grow with p), the 2D communication *time* grows as √p·log√p while the
// delegate-reduction time grows only as log p_rank (d stays ≈ 4n/p = const).
func TestScalingArgument(t *testing.T) {
	const n0 = int64(1 << 14) // vertices per processor
	// 2D time per §II-B: (4·nt + n·Sb/8)·(log₂√p/√p)·g, with nt ≈ n/2
	// visited in forward iterations and Sb backward iterations.
	time2D := func(p int) float64 {
		n := float64(n0) * float64(p)
		root := math.Sqrt(float64(p))
		return (4*(n/2) + n*3/8) * math.Log2(root) / root
	}
	// Delegate model per §V-A: d·log₂(p_rank)/4·S·g with d = 4·n/p const.
	timeDelegate := func(p int) float64 {
		d := float64(4 * n0)
		return d * math.Log2(float64(p)) / 4 * 6
	}
	g2 := time2D(1024) / time2D(16)
	gd := timeDelegate(1024) / timeDelegate(16)
	if g2 <= gd {
		t.Fatalf("2D time growth %.1f× should exceed delegate growth %.1f×", g2, gd)
	}
	// And the delegate growth is logarithmic: doubling p adds a constant.
	inc1 := timeDelegate(64) - timeDelegate(32)
	inc2 := timeDelegate(1024) - timeDelegate(512)
	if math.Abs(inc1-inc2) > 1e-9*inc1 {
		t.Fatalf("delegate growth not logarithmic: %g vs %g", inc1, inc2)
	}
}

func BenchmarkSerialBFSScale14(b *testing.B) {
	c := graph.BuildCSR(rmat.Generate(rmat.DefaultParams(14)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SerialBFS(c, 1)
	}
}

// FrontierEdges returns, per depth, the number of edges incident to that
// depth's frontier (the forward workload of iteration t). No library path
// uses it; it stays as the subject of TestLevelSizesAndFrontierEdges.
func FrontierEdges(c *graph.CSR, levels []int32) []int64 {
	edges := make([]int64, slices.Max(levels)+1)
	for u := int64(0); u < c.N; u++ {
		if l := levels[u]; l >= 0 {
			edges[l] += int64(len(c.Neighbors(u)))
		}
	}
	return edges
}
