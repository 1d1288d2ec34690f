package partition

import (
	"fmt"
	"testing"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/rmat"
)

// referenceDistribute is the oracle the bucketed distributor is held to: the
// three-pass build this package shipped through PR 19 (route every edge
// through Route, count rows over the whole edge list, fill columns over the
// whole edge list), single-threaded and with no sharing. It is test code
// only — never linked into the library.
func referenceDistribute(el *graph.EdgeList, sep *Separation, cfg Config) (*Subgraphs, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sep.N != el.N {
		return nil, fmt.Errorf("partition: separation over %d vertices, graph has %d", sep.N, el.N)
	}
	p := cfg.P()
	d := sep.D()
	sg := &Subgraphs{Cfg: cfg, Sep: sep, N: el.N, M: el.M()}

	// Pass 1: route every edge once (cached for the later passes) and tally
	// global category counts.
	route := make([]uint8, len(el.Edges))
	gpus := make([]int32, len(el.Edges))
	for i, e := range el.Edges {
		gpu, cat := Route(cfg, sep, e.U, e.V)
		route[i] = uint8(cat)
		gpus[i] = int32(gpu)
		switch cat {
		case NN:
			sg.CountNN++
		case ND:
			sg.CountND++
		case DN:
			sg.CountDN++
		case DD:
			sg.CountDD++
		}
	}

	// Pass 2: count rows per (gpu, category) to size the CSR arrays.
	type counts struct {
		nn, nd, dn, dd []uint32 // per-row edge counts
	}
	per := make([]counts, p)
	for i := range per {
		rank, slot := i/cfg.GPUsPerRank, i%cfg.GPUsPerRank
		nLocal := cfg.LocalCount(el.N, rank, slot)
		per[i].nn = make([]uint32, nLocal+1)
		per[i].nd = make([]uint32, nLocal+1)
		per[i].dn = make([]uint32, d+1)
		per[i].dd = make([]uint32, d+1)
	}
	for i, e := range el.Edges {
		pc := &per[gpus[i]]
		switch EdgeCategory(route[i]) {
		case NN:
			pc.nn[cfg.LocalID(e.U)+1]++
		case ND:
			pc.nd[cfg.LocalID(e.U)+1]++
		case DN:
			pc.dn[sep.DelegateID[e.U]+1]++
		case DD:
			pc.dd[sep.DelegateID[e.U]+1]++
		}
	}

	// Prefix sums → row offsets; allocate column arrays.
	sg.GPUs = make([]*GPUGraph, p)
	for i := 0; i < p; i++ {
		rank, slot := i/cfg.GPUsPerRank, i%cfg.GPUsPerRank
		nLocal := cfg.LocalCount(el.N, rank, slot)
		pc := &per[i]
		prefix := func(a []uint32) {
			for j := 1; j < len(a); j++ {
				a[j] += a[j-1]
			}
		}
		prefix(pc.nn)
		prefix(pc.nd)
		prefix(pc.dn)
		prefix(pc.dd)
		sg.GPUs[i] = &GPUGraph{
			GPU: i, Rank: rank, Slot: slot, NumLocal: nLocal,
			NN:           &SubCSR64{NumRows: nLocal, RowOffsets: pc.nn, Cols: make([]int64, pc.nn[nLocal])},
			ND:           &SubCSR32{NumRows: nLocal, RowOffsets: pc.nd, Cols: make([]uint32, pc.nd[nLocal])},
			DN:           &SubCSR32{NumRows: d, RowOffsets: pc.dn, Cols: make([]uint32, pc.dn[d])},
			DD:           &SubCSR32{NumRows: d, RowOffsets: pc.dd, Cols: make([]uint32, pc.dd[d])},
			DDSourceMask: bitmask.New(d),
			DNSourceMask: bitmask.New(d),
		}
	}

	// Pass 3: fill columns. Cursor arrays track the next free slot per row.
	cursors := make([]counts, p)
	for i, g := range sg.GPUs {
		cursors[i].nn = make([]uint32, g.NumLocal)
		cursors[i].nd = make([]uint32, g.NumLocal)
		cursors[i].dn = make([]uint32, d)
		cursors[i].dd = make([]uint32, d)
	}
	for i, e := range el.Edges {
		g := sg.GPUs[gpus[i]]
		cur := &cursors[gpus[i]]
		switch EdgeCategory(route[i]) {
		case NN:
			row := int64(cfg.LocalID(e.U))
			g.NN.Cols[g.NN.RowOffsets[row]+cur.nn[row]] = e.V
			cur.nn[row]++
		case ND:
			row := int64(cfg.LocalID(e.U))
			g.ND.Cols[g.ND.RowOffsets[row]+cur.nd[row]] = uint32(sep.DelegateID[e.V])
			cur.nd[row]++
		case DN:
			row := int64(sep.DelegateID[e.U])
			g.DN.Cols[g.DN.RowOffsets[row]+cur.dn[row]] = cfg.LocalID(e.V)
			cur.dn[row]++
			g.DNSourceMask.Set(row)
		case DD:
			row := int64(sep.DelegateID[e.U])
			g.DD.Cols[g.DD.RowOffsets[row]+cur.dd[row]] = uint32(sep.DelegateID[e.V])
			cur.dd[row]++
			g.DDSourceMask.Set(row)
		}
	}

	// Side structures: nd source lists.
	for _, g := range sg.GPUs {
		for row := int64(0); row < g.NumLocal; row++ {
			if g.ND.Degree(row) > 0 {
				g.NDSources = append(g.NDSources, uint32(row))
			}
		}
	}

	// Replicated delegate directory.
	sg.DelegateOutDeg = make([]int64, d)
	for di, v := range sep.DelegateGlobal {
		sg.DelegateOutDeg[di] = sep.OutDeg[v]
	}
	return sg, nil
}

// TestDistributeMatchesReference holds the bucketed distributor to the
// three-pass oracle byte for byte, on every worker count (the result must
// not depend on how the edge list is cut) × cluster shape × the inputs that
// bend it: no edges, fewer vertices than GPUs, every positive-degree vertex
// a delegate, no delegate at all, self-loops and parallel edges.
func TestDistributeMatchesReference(t *testing.T) {
	rm := rmat.Generate(rmat.Params{Scale: 10, EdgeFactor: 8, Seed: 5, Permute: true, Symmetric: true})
	var maxDeg int64
	for _, d := range rm.OutDegrees() {
		maxDeg = max(maxDeg, d)
	}
	// Two circulants, 0..59 of degree 10 and 60..99 of degree 6: at
	// threshold 4 every vertex is a delegate, and every dd edge but those at
	// 3 and 70 ties on out-degree, so the id decides its owner; the
	// reference routes through Route, on 3×2 GPUs among the shapes.
	tied := &graph.EdgeList{N: 100}
	for _, c := range []struct{ lo, n, k int64 }{{0, 60, 5}, {60, 40, 3}} {
		for i := int64(0); i < c.n; i++ {
			for j := int64(1); j <= c.k; j++ {
				u, v := c.lo+i, c.lo+(i+j)%c.n
				tied.Add(u, v)
				tied.Add(v, u)
			}
		}
	}
	tied.Add(3, 70) // one pair of unequal degree between the two
	tied.Add(70, 3)
	loops := &graph.EdgeList{N: 9}
	for _, e := range [][2]int64{{0, 0}, {1, 2}, {2, 1}, {1, 2}, {2, 1}, {3, 3}, {3, 3}, {3, 4}, {4, 3}, {8, 1}, {1, 8}, {1, 1}} {
		loops.Add(e[0], e[1])
	}
	inputs := []struct {
		name string
		el   *graph.EdgeList
		th   int64
	}{
		{"rmat", rm, SuggestThreshold(rm.OutDegrees(), rm.N/4)},
		{"all-delegates", rm, 0},
		{"no-delegates", rm, maxDeg},
		{"empty", graph.NewEdgeList(16), 4},
		{"n<p", gen.Path(5), 1},
		{"loops-and-parallel", loops, 2},
		{"loops-and-parallel-all-delegates", loops, 0},
		{"tied-delegates", tied, 4},
	}
	shapes := []Config{{1, 1}, {3, 2}, {8, 2}, {32, 1}}
	for _, in := range inputs {
		sep := Separate(in.el, in.th)
		for _, cfg := range shapes {
			want, err := referenceDistribute(in.el, sep, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 7} {
				t.Run(fmt.Sprintf("%s/%dx%d/w%d", in.name, cfg.Ranks, cfg.GPUsPerRank, workers), func(t *testing.T) {
					got, shared, err := distribute(in.el, sep, cfg, nil, workers)
					if err != nil {
						t.Fatal(err)
					}
					if shared != 0 {
						t.Fatalf("cold build reports %d shared GPUs", shared)
					}
					equalSubgraphs(t, got, want)
					// Against itself as prev, every GPU is shared.
					again, shared, err := distribute(in.el, sep, cfg, got, workers)
					if err != nil {
						t.Fatal(err)
					}
					if shared != cfg.P() {
						t.Fatalf("rebuild of the same list shared %d of %d GPUs", shared, cfg.P())
					}
					for i := range again.GPUs {
						if again.GPUs[i] != got.GPUs[i] {
							t.Fatalf("gpu %d reported shared but is a new GPUGraph", i)
						}
					}
				})
			}
		}
	}
}

// TestDistributeRejectsOutOfRangeEdge: the build runs on worker goroutines,
// where an index panic would be beyond any caller's recover. A destination
// out of range passes Separate (which indexes sources only).
func TestDistributeRejectsOutOfRangeEdge(t *testing.T) {
	el := gen.Path(8)
	el.Add(3, 99)
	sep := Separate(el, 100)
	if _, err := Distribute(el, sep, Config{Ranks: 2, GPUsPerRank: 2}); err == nil {
		t.Fatal("accepted an edge to vertex 99 of 8")
	}
}

// EdgeCategory classifies a directed edge by its endpoint kinds (§III-B).
type EdgeCategory uint8

const (
	NN EdgeCategory = iota // normal → normal
	ND                     // normal → delegate
	DN                     // delegate → normal
	DD                     // delegate → delegate
)

func (c EdgeCategory) String() string {
	switch c {
	case NN:
		return "nn"
	case ND:
		return "nd"
	case DN:
		return "dn"
	case DD:
		return "dd"
	}
	return "??"
}

// Route implements Algorithm 1: it returns the destination GPU and the edge
// category for directed edge u→v.
//
//	if u is normal:            to owner(u)   (nn or nd)
//	else if v is normal:       to owner(v)   (dn)
//	else lower-out-degree endpoint's owner, ties to owner(min(u,v))  (dd)
func Route(cfg Config, s *Separation, u, v int64) (gpu int, cat EdgeCategory) {
	uDel, vDel := s.IsDelegate(u), s.IsDelegate(v)
	switch {
	case !uDel && !vDel:
		return cfg.OwnerGPU(u), NN
	case !uDel: // u normal, v delegate
		return cfg.OwnerGPU(u), ND
	case !vDel: // u delegate, v normal
		return cfg.OwnerGPU(v), DN
	default:
		du, dv := s.OutDeg[u], s.OutDeg[v]
		switch {
		case du < dv:
			return cfg.OwnerGPU(u), DD
		case du > dv:
			return cfg.OwnerGPU(v), DD
		default:
			if u <= v {
				return cfg.OwnerGPU(u), DD
			}
			return cfg.OwnerGPU(v), DD
		}
	}
}
