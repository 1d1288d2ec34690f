package partition

import (
	"slices"
	"testing"

	"gcbfs/internal/graph"
	"gcbfs/internal/rmat"
)

// diffGPUGraph names the first array in which two GPUGraphs differ, or
// returns "" when they are byte-identical (every array, not just shape).
func diffGPUGraph(a, b *GPUGraph) string {
	switch {
	case a.NumLocal != b.NumLocal:
		return "NumLocal"
	case !slices.Equal(a.NN.RowOffsets, b.NN.RowOffsets):
		return "nn row offsets"
	case !slices.Equal(a.NN.Cols, b.NN.Cols):
		return "nn cols"
	case !slices.Equal(a.ND.RowOffsets, b.ND.RowOffsets):
		return "nd row offsets"
	case !slices.Equal(a.ND.Cols, b.ND.Cols):
		return "nd cols"
	case !slices.Equal(a.DN.RowOffsets, b.DN.RowOffsets):
		return "dn row offsets"
	case !slices.Equal(a.DN.Cols, b.DN.Cols):
		return "dn cols"
	case !slices.Equal(a.DD.RowOffsets, b.DD.RowOffsets):
		return "dd row offsets"
	case !slices.Equal(a.DD.Cols, b.DD.Cols):
		return "dd cols"
	case !slices.Equal(a.NDSources, b.NDSources):
		return "nd sources"
	case !a.DDSourceMask.Equal(b.DDSourceMask):
		return "dd source mask"
	case !a.DNSourceMask.Equal(b.DNSourceMask):
		return "dn source mask"
	}
	return ""
}

func equalGPUGraph(t *testing.T, gpu int, a, b *GPUGraph) {
	t.Helper()
	if d := diffGPUGraph(a, b); d != "" {
		t.Fatalf("gpu %d: %s differ", gpu, d)
	}
}

// equalSubgraphs holds got to want in everything a build produces: every
// GPUGraph byte for byte, the four category counts and the delegate
// directory.
func equalSubgraphs(t *testing.T, got, want *Subgraphs) {
	t.Helper()
	if len(got.GPUs) != len(want.GPUs) || got.N != want.N || got.M != want.M {
		t.Fatalf("shape: %d GPUs n=%d m=%d, want %d GPUs n=%d m=%d",
			len(got.GPUs), got.N, got.M, len(want.GPUs), want.N, want.M)
	}
	for i := range want.GPUs {
		equalGPUGraph(t, i, got.GPUs[i], want.GPUs[i])
	}
	if got.CountNN != want.CountNN || got.CountND != want.CountND ||
		got.CountDN != want.CountDN || got.CountDD != want.CountDD {
		t.Fatalf("category counts nn/nd/dn/dd %d/%d/%d/%d, want %d/%d/%d/%d",
			got.CountNN, got.CountND, got.CountDN, got.CountDD,
			want.CountNN, want.CountND, want.CountDN, want.CountDD)
	}
	if !slices.Equal(got.DelegateOutDeg, want.DelegateOutDeg) {
		t.Fatalf("delegate out-degrees differ")
	}
}

// TestDistributeIncrementalMatchesFull mutates an RMAT graph (two fresh
// undirected pairs), then checks that the incremental distributor produces
// exactly what a from-scratch Distribute over the new edge list produces,
// while sharing at least one clean GPU.
func TestDistributeIncrementalMatchesFull(t *testing.T) {
	el := rmat.Generate(rmat.Params{Scale: 11, EdgeFactor: 8, Seed: 3, Permute: true, Symmetric: true})
	cfg := Config{Ranks: 3, GPUsPerRank: 2}
	// A threshold of at least 4 leaves room for a vertex of degree ≤ 2 to
	// gain an edge and stay normal (the suggested one is 1 on this graph,
	// which made every insert a delegate shift and skipped this test).
	th := max(SuggestThreshold(el.OutDegrees(), 4*el.N/int64(cfg.P())), 4)
	sep := Separate(el, th)
	prev, err := Distribute(el, sep, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A tiny localized delta: two fresh pairs between low-degree normal
	// vertices, which stay normal (so the delegate set is stable).
	next := &graph.EdgeList{N: el.N, Edges: append([]graph.Edge(nil), el.Edges...)}
	deg := el.OutDegrees()
	var lowDeg []int64
	for v := int64(0); v < el.N && len(lowDeg) < 4; v++ {
		if deg[v] >= 1 && deg[v] <= 2 && !sep.IsDelegate(v) {
			lowDeg = append(lowDeg, v)
		}
	}
	if len(lowDeg) < 4 {
		t.Fatal("test setup: graph has no low-degree normal vertices to mutate")
	}
	next.Edges = append(next.Edges,
		graph.Edge{U: lowDeg[0], V: lowDeg[1]}, graph.Edge{U: lowDeg[1], V: lowDeg[0]},
		graph.Edge{U: lowDeg[2], V: lowDeg[3]}, graph.Edge{U: lowDeg[3], V: lowDeg[2]})

	nextSep := Separate(next, th)
	if !SameDelegates(sep, nextSep) {
		t.Fatal("test setup: delta shifted the delegate set")
	}

	inc, reported, err := DistributeIncremental(next, nextSep, cfg, prev)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Distribute(next, nextSep, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if reported == 0 {
		t.Errorf("incremental rebuild touched all %d GPUs for a 2-pair delta", cfg.P())
	}
	equalSubgraphs(t, inc, full)
	shared := 0
	for i := range inc.GPUs {
		if inc.GPUs[i] == prev.GPUs[i] {
			shared++
		}
	}
	if shared != reported {
		t.Errorf("shared %d GPUGraphs, reported %d", shared, reported)
	}
}

// TestDistributeIncrementalDelegateShift forces a delegate-set change and
// checks the incremental path falls back to a full rebuild with correct
// output.
func TestDistributeIncrementalDelegateShift(t *testing.T) {
	el := rmat.Generate(rmat.Params{Scale: 10, EdgeFactor: 8, Seed: 9, Permute: true, Symmetric: true})
	cfg := Config{Ranks: 2, GPUsPerRank: 2}
	th := SuggestThreshold(el.OutDegrees(), 4*el.N/int64(cfg.P()))
	sep := Separate(el, th)
	prev, err := Distribute(el, sep, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Attach a star to vertex 0 until it crosses the threshold.
	next := &graph.EdgeList{N: el.N, Edges: append([]graph.Edge(nil), el.Edges...)}
	deg := el.OutDegrees()
	var hub int64 = -1
	for v := int64(0); v < el.N; v++ {
		if !sep.IsDelegate(v) && deg[v] > 0 {
			hub = v
			break
		}
	}
	if hub < 0 {
		t.Skip("no normal vertex to promote")
	}
	for i := int64(0); deg[hub]+i <= th+1; i++ {
		other := (hub + 1 + i) % el.N
		next.Edges = append(next.Edges, graph.Edge{U: hub, V: other}, graph.Edge{U: other, V: hub})
	}
	nextSep := Separate(next, th)
	if SameDelegates(sep, nextSep) {
		t.Fatal("test setup failed to change the delegate set")
	}

	inc, shared, err := DistributeIncremental(next, nextSep, cfg, prev)
	if err != nil {
		t.Fatal(err)
	}
	if shared != 0 {
		t.Errorf("delegate shift shared %d GPUs, want a full rebuild", shared)
	}
	full, err := Distribute(next, nextSep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalSubgraphs(t, inc, full)
}
