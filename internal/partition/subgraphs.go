package partition

import (
	"fmt"
	"iter"
	"slices"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/graph"
)

// SubCSR32 is a per-GPU CSR whose column indices are 32-bit local values
// (local normal slots or dense delegate ids). Row offsets are also 32-bit,
// matching the 4-byte-per-row costs in Table I.
type SubCSR32 struct {
	NumRows    int64
	RowOffsets []uint32 // len NumRows+1
	Cols       []uint32
}

// Neighbors returns row u's adjacency.
func (c *SubCSR32) Neighbors(u int64) []uint32 {
	return c.Cols[c.RowOffsets[u]:c.RowOffsets[u+1]]
}

// Degree returns row u's length.
func (c *SubCSR32) Degree(u int64) int64 {
	return int64(c.RowOffsets[u+1] - c.RowOffsets[u])
}

// M returns the number of edges stored.
func (c *SubCSR32) M() int64 { return int64(len(c.Cols)) }

// RowBytes and ColBytes are the Table-I byte costs of this subgraph.
func (c *SubCSR32) RowBytes() int64 { return c.NumRows * 4 }
func (c *SubCSR32) ColBytes() int64 { return int64(len(c.Cols)) * 4 }

// SubCSR64 is the nn subgraph: rows are local normal slots, columns are
// global 64-bit vertex ids (destinations may live on any GPU, so they cannot
// be narrowed — the 8-byte nn column cost in Table I).
type SubCSR64 struct {
	NumRows    int64
	RowOffsets []uint32
	Cols       []int64
}

// Neighbors returns row u's adjacency (global ids).
func (c *SubCSR64) Neighbors(u int64) []int64 {
	return c.Cols[c.RowOffsets[u]:c.RowOffsets[u+1]]
}

// Degree returns row u's length.
func (c *SubCSR64) Degree(u int64) int64 {
	return int64(c.RowOffsets[u+1] - c.RowOffsets[u])
}

// M returns the number of edges stored.
func (c *SubCSR64) M() int64 { return int64(len(c.Cols)) }

// RowBytes and ColBytes are the Table-I byte costs of this subgraph.
func (c *SubCSR64) RowBytes() int64 { return c.NumRows * 4 }
func (c *SubCSR64) ColBytes() int64 { return int64(len(c.Cols)) * 8 }

// GPUGraph is everything one simulated GPU stores: the four subgraphs plus
// the direction-optimization side structures (§IV-B): the nd source list
// (potential destinations of backward dn pulls) and the dd/dn source masks.
type GPUGraph struct {
	GPU        int // global GPU index
	Rank, Slot int
	NumLocal   int64 // local vertex slots (≈ n/p)

	NN *SubCSR64 // local normal → global normal
	ND *SubCSR32 // local normal → delegate id
	DN *SubCSR32 // delegate id → local normal
	DD *SubCSR32 // delegate id → delegate id

	// NDSources lists local slots with at least one nd edge, ascending.
	// In the reverse direction these are exactly the vertices a dn
	// backward pull may discover ("we keep a source list of the
	// normal-to-delegate subgraph").
	NDSources []uint32
	// DDSourceMask/DNSourceMask mark delegates with local dd/dn edges
	// ("we keep source masks for the dd and dn subgraphs").
	DDSourceMask *bitmask.Mask
	DNSourceMask *bitmask.Mask
}

// MemoryBytes returns the measured Table-I footprint of this GPU's subgraphs
// (row offsets + column indices, at their true element widths).
func (g *GPUGraph) MemoryBytes() int64 {
	return g.NN.RowBytes() + g.NN.ColBytes() +
		g.ND.RowBytes() + g.ND.ColBytes() +
		g.DN.RowBytes() + g.DN.ColBytes() +
		g.DD.RowBytes() + g.DD.ColBytes()
}

// Subgraphs is the fully distributed graph: one GPUGraph per simulated GPU
// plus the global separation metadata every GPU keeps (delegate directory).
type Subgraphs struct {
	Cfg Config
	Sep *Separation
	N   int64 // global vertex count
	M   int64 // global directed edge count

	GPUs []*GPUGraph

	// Per-category global edge counts (Fig 5/7/12 report their shares).
	CountNN, CountND, CountDN, CountDD int64

	// DelegateOutDeg[d] is the global out-degree of delegate d — previsit
	// kernels use it for forward-workload estimates; it is part of the
	// replicated delegate directory.
	DelegateOutDeg []int64
}

// D returns the delegate count.
func (sg *Subgraphs) D() int64 { return sg.Sep.D() }

// Neighbors yields v's out-neighbors as global ids, each directed edge v→w
// once (parallel copies repeat): a normal vertex's NN and ND rows on its owner
// GPU, a delegate's DN and DD slices on every GPU, in GPU order.
func (sg *Subgraphs) Neighbors(v int64) iter.Seq[int64] {
	return func(yield func(int64) bool) {
		cfg, global := sg.Cfg, sg.Sep.DelegateGlobal
		if di := int64(sg.Sep.DelegateID[v]); di >= 0 {
			for _, g := range sg.GPUs {
				for _, lv := range g.DN.Neighbors(di) {
					if !yield(cfg.GlobalID(lv, g.Rank, g.Slot)) {
						return
					}
				}
				for _, dv := range g.DD.Neighbors(di) {
					if !yield(global[dv]) {
						return
					}
				}
			}
			return
		}
		g, slot := sg.GPUs[cfg.OwnerGPU(v)], int64(cfg.LocalID(v))
		for _, w := range g.NN.Neighbors(slot) {
			if !yield(w) {
				return
			}
		}
		for _, dv := range g.ND.Neighbors(slot) {
			if !yield(global[dv]) {
				return
			}
		}
	}
}

// SameDelegates reports whether two separations induce the same delegate set
// (and therefore the same dense delegate-id mapping). Out-degrees may still
// differ — that only moves dd edges between owners, which the per-GPU
// comparison against the previous epoch catches.
func SameDelegates(a, b *Separation) bool {
	if a.N != b.N || len(a.DelegateGlobal) != len(b.DelegateGlobal) {
		return false
	}
	for i, v := range a.DelegateGlobal {
		if b.DelegateGlobal[i] != v {
			return false
		}
	}
	return true
}

// Distribute runs Algorithm 1 over the edge list and materializes the four
// subgraphs on every GPU. The input must be symmetric (every u→v paired with
// v→u) for the dn/nd/dd subgraph symmetry the engine relies on; Distribute
// does not verify that (generators guarantee it; tests cover it).
func Distribute(el *graph.EdgeList, sep *Separation, cfg Config) (*Subgraphs, error) {
	sg, _, err := distribute(el, sep, cfg, nil, graph.BuildWorkers())
	return sg, err
}

// DistributeIncremental is Distribute for the next epoch of a mutated graph:
// it routes the new edge list once and, GPU by GPU, compares what that GPU
// would now hold against prev — a GPU whose four subgraphs come out
// unchanged shares its immutable *GPUGraph with prev instead of allocating
// a copy. A changed delegate set shifts the dense delegate-id mapping on
// every GPU, so nothing can be shared and every GPU is rebuilt. Returns the
// number of GPUs shared (reused from prev; the rest were rebuilt).
func DistributeIncremental(el *graph.EdgeList, sep *Separation, cfg Config, prev *Subgraphs) (*Subgraphs, int, error) {
	if prev != nil && (prev.Cfg != cfg || prev.N != el.N || !SameDelegates(sep, prev.Sep)) {
		prev = nil
	}
	return distribute(el, sep, cfg, prev, graph.BuildWorkers())
}

// The distributor is a two-level stable counting sort. The first level
// (route) sorts edges by destination GPU, the second (build) sorts one GPU's
// edges by CSR row. The one-level form — count rows and fill columns of
// every GPU in passes over the whole edge list — scatters each edge into
// row counters and column arrays spread over all p GPUs, megabytes that no
// cache holds; sorting by GPU first keeps the second level's scatter inside
// one GPU's arrays, and makes both levels parallel: the edge list splits
// into chunks for the first, the GPUs split among workers for the second.
//
// Both levels are stable, so a CSR row lists its columns in edge-list
// order. That order is the contract: it is what the three-pass build this
// replaced produced (referenceDistribute in the tests), every digest in
// core's golden_test.go depends on it, and it is why the result cannot
// depend on the worker count — chunks are contiguous and each GPU reads its
// buckets in chunk order, so however the list is cut, a GPU sees the same
// subsequence of it.

// routed is one edge after Algorithm 1: the CSR row and column it occupies
// on its destination GPU. nn columns are global vertex ids (C = int64); nd,
// dn and dd columns are delegate ids or local slots (C = uint32).
type routed[C uint32 | int64] struct {
	row uint32
	col C
}

// stream is the edges one route worker sent to one GPU in one category, in
// edge-list order: a list of blocks of fixed capacity, and the open block
// the next record goes to. It grows by whole blocks, so no record is ever
// copied and a build allocates what it buckets exactly once.
type stream[C uint32 | int64] struct {
	blocks [][]routed[C] // the closed blocks, in order
	open   []routed[C]   // full length; its first n records are filled
	n      int
}

func (s *stream[C]) add(r routed[C], blockLen int) {
	if s.n == len(s.open) {
		s.close()
		s.open = make([]routed[C], blockLen)
	}
	s.open[s.n] = r
	s.n++
}

// close moves the open block's filled records to blocks.
func (s *stream[C]) close() {
	if s.n > 0 {
		s.blocks = append(s.blocks, s.open[:s.n])
	}
	s.open, s.n = nil, 0
}

// bucket is what one route worker sent to one GPU, a stream per category.
type bucket struct {
	nn         stream[int64]
	nd, dn, dd stream[uint32]
}

// endpoint is everything Algorithm 1 asks about a vertex, in one 8-byte
// load: its owner GPU, and the index it is known by there — the local slot
// of a normal vertex, the dense delegate id of a delegate.
type endpoint struct {
	id  uint32
	gpu int32 // owner GPU of a normal vertex; ^(owner GPU) marks a delegate
}

// endpoints tabulates every vertex once, so the per-edge path of the route
// level has no division in it.
func endpoints(cfg Config, sep *Separation) []endpoint {
	p := cfg.P()
	owner := make([]int32, min(int64(p), sep.N)) // by residue v mod p
	for res := range owner {
		owner[res] = int32(cfg.OwnerGPU(int64(res)))
	}
	ends := make([]endpoint, sep.N)
	res, slot := 0, uint32(0)
	for v := range ends {
		if d := sep.DelegateID[v]; d >= 0 {
			ends[v] = endpoint{id: uint32(d), gpu: ^owner[res]}
		} else {
			ends[v] = endpoint{id: slot, gpu: owner[res]}
		}
		if res++; res == p {
			res, slot = 0, slot+1
		}
	}
	return ends
}

// routeChunk is the first level for one chunk of the edge list (base is the
// chunk's offset in it): Algorithm 1 per edge, exactly as the reference build
// (reference_test.go) decides it, appended to the destination GPU's bucket.
func routeChunk(edges []graph.Edge, base int, ends []endpoint, delegateOutDeg []int64, p int) ([]bucket, error) {
	out := make([]bucket, p)
	// A stream holds about len(edges)/4p records; blocks a quarter of that
	// keep the unfilled tails of all 4p streams near a tenth of the total.
	blockLen := min(max(len(edges)/(16*p), 16), 1024)
	n := uint64(len(ends))
	for i, e := range edges {
		if uint64(e.U) >= n || uint64(e.V) >= n {
			return nil, fmt.Errorf("partition: edge %d (%d→%d) out of range [0,%d)", base+i, e.U, e.V, n)
		}
		u, v := ends[e.U], ends[e.V]
		switch {
		case u.gpu >= 0 && v.gpu >= 0:
			out[u.gpu].nn.add(routed[int64]{u.id, e.V}, blockLen)
		case u.gpu >= 0:
			out[u.gpu].nd.add(routed[uint32]{u.id, v.id}, blockLen)
		case v.gpu >= 0:
			out[v.gpu].dn.add(routed[uint32]{u.id, v.id}, blockLen)
		default:
			// Lower out-degree endpoint's owner; ties to the lower vertex,
			// which is the lower delegate id (ids ascend with the vertex).
			// Most edges of a power-law graph are dd, and which end is
			// lower is a coin toss that a branch predictor loses, so the
			// owner is selected with masks: lt is all ones when dv < du,
			// eq when dv == du (degrees are non-negative, so du − dv cannot
			// overflow), id when v.id < u.id.
			du, dv := delegateOutDeg[u.id], delegateOutDeg[v.id]
			lt := (dv - du) >> 63
			eq := ^((dv - du) | (du - dv)) >> 63
			id := (int64(v.id) - int64(u.id)) >> 63
			m := int32(lt | eq&id)
			own := u.gpu ^ ((u.gpu ^ v.gpu) & m)
			out[^own].dd.add(routed[uint32]{u.id, v.id}, blockLen)
		}
	}
	for i := range out { // the build reads closed blocks only
		b := &out[i]
		b.nn.close()
		b.nd.close()
		b.dn.close()
		b.dd.close()
	}
	return out, nil
}

// rowOffsets counts the rows of one GPU's edges in one category (blocks is
// every route worker's stream for it, in worker order) and prefix-sums the
// counts into CSR row offsets.
func rowOffsets[C uint32 | int64](numRows int64, blocks [][]routed[C]) []uint32 {
	off := make([]uint32, numRows+1)
	for _, b := range blocks {
		for _, r := range b {
			off[r.row+1]++
		}
	}
	for i := int64(1); i <= numRows; i++ {
		off[i] += off[i-1]
	}
	return off
}

// fillCols scatters the blocks' columns to their rows, block after block:
// the stable second level. cursor is scratch of at least len(off)-1 entries.
func fillCols[C uint32 | int64](off, cursor []uint32, blocks [][]routed[C]) []C {
	cols := make([]C, off[len(off)-1])
	copy(cursor, off[:len(off)-1])
	for _, b := range blocks {
		for _, r := range b {
			cols[cursor[r.row]] = r.col
			cursor[r.row]++
		}
	}
	return cols
}

// sameCols reports whether fillCols would reproduce prev, stopping at the
// first column that differs. The caller has checked that off equals prev's
// row offsets.
func sameCols[C uint32 | int64](off, cursor []uint32, blocks [][]routed[C], prev []C) bool {
	copy(cursor, off[:len(off)-1])
	for _, b := range blocks {
		for _, r := range b {
			if prev[cursor[r.row]] != r.col {
				return false
			}
			cursor[r.row]++
		}
	}
	return true
}

// sourceMask marks the rows of a delegate-sourced subgraph that have edges.
func sourceMask(off []uint32) *bitmask.Mask {
	m := bitmask.New(int64(len(off) - 1))
	for row := range off[1:] {
		if off[row+1] > off[row] {
			m.Set(int64(row))
		}
	}
	return m
}

// buildGPU is the second level for GPU i: row offsets, columns and the
// direction-optimization side structures of its four subgraphs, from its
// buckets in worker order. With a prev of the same shape and delegate set it
// first decides, exactly, whether the build would reproduce prev — equal row
// offsets, then equal columns — and returns prev itself if so.
func buildGPU(i int, cfg Config, n, d int64, buckets [][]bucket, prev *GPUGraph, cursor []uint32) *GPUGraph {
	var nn [][]routed[int64]
	var nd, dn, dd [][]routed[uint32]
	for w := range buckets {
		b := &buckets[w][i]
		nn, nd, dn, dd = append(nn, b.nn.blocks...), append(nd, b.nd.blocks...), append(dn, b.dn.blocks...), append(dd, b.dd.blocks...)
	}
	rank, slot := i/cfg.GPUsPerRank, i%cfg.GPUsPerRank
	nLocal := cfg.LocalCount(n, rank, slot)
	nnOff, ndOff := rowOffsets(nLocal, nn), rowOffsets(nLocal, nd)
	dnOff, ddOff := rowOffsets(d, dn), rowOffsets(d, dd)

	if prev != nil &&
		slices.Equal(nnOff, prev.NN.RowOffsets) && slices.Equal(ndOff, prev.ND.RowOffsets) &&
		slices.Equal(dnOff, prev.DN.RowOffsets) && slices.Equal(ddOff, prev.DD.RowOffsets) &&
		sameCols(nnOff, cursor, nn, prev.NN.Cols) && sameCols(ndOff, cursor, nd, prev.ND.Cols) &&
		sameCols(dnOff, cursor, dn, prev.DN.Cols) && sameCols(ddOff, cursor, dd, prev.DD.Cols) {
		return prev
	}

	g := &GPUGraph{
		GPU: i, Rank: rank, Slot: slot, NumLocal: nLocal,
		NN:           &SubCSR64{NumRows: nLocal, RowOffsets: nnOff, Cols: fillCols(nnOff, cursor, nn)},
		ND:           &SubCSR32{NumRows: nLocal, RowOffsets: ndOff, Cols: fillCols(ndOff, cursor, nd)},
		DN:           &SubCSR32{NumRows: d, RowOffsets: dnOff, Cols: fillCols(dnOff, cursor, dn)},
		DD:           &SubCSR32{NumRows: d, RowOffsets: ddOff, Cols: fillCols(ddOff, cursor, dd)},
		DDSourceMask: sourceMask(ddOff),
		DNSourceMask: sourceMask(dnOff),
	}
	for row := int64(0); row < nLocal; row++ {
		if g.ND.Degree(row) > 0 {
			g.NDSources = append(g.NDSources, uint32(row))
		}
	}
	return g
}

// route is the first level: worker w buckets the w-th contiguous chunk of the
// edge list. delegateOutDeg is the delegate directory of sep.
func route(el *graph.EdgeList, sep *Separation, cfg Config, delegateOutDeg []int64, workers int) ([][]bucket, error) {
	ends := endpoints(cfg, sep)
	buckets := make([][]bucket, workers)
	errs := make([]error, workers)
	graph.ForChunks(len(el.Edges), workers, func(w, lo, hi int) {
		buckets[w], errs[w] = routeChunk(el.Edges[lo:hi], lo, ends, delegateOutDeg, cfg.P())
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return buckets, nil
}

// build is the second level: the GPUs are dealt out to the workers the way
// the edge list was, and each fills sg.GPUs for its share from the buckets,
// sharing prev's GPUGraph where it would come out the same.
func build(sg *Subgraphs, buckets [][]bucket, prev *Subgraphs, workers int) {
	cfg, d := sg.Cfg, sg.D()
	maxLocal := cfg.LocalCount(sg.N, 0, 0) // residue 0 owns the most vertices
	graph.ForChunks(cfg.P(), workers, func(_, lo, hi int) {
		cursor := make([]uint32, max(maxLocal, d))
		for i := lo; i < hi; i++ {
			var prevGPU *GPUGraph
			if prev != nil {
				prevGPU = prev.GPUs[i]
			}
			sg.GPUs[i] = buildGPU(i, cfg, sg.N, d, buckets, prevGPU, cursor)
		}
	})
}

// distribute implements Distribute and DistributeIncremental — the two
// levels described above routed — on the given number of workers; the
// result does not depend on it. A non-nil prev must have el's vertex count,
// cfg and sep's delegate set: its GPUGraphs are shared wherever the build
// would reproduce them.
func distribute(el *graph.EdgeList, sep *Separation, cfg Config, prev *Subgraphs, workers int) (*Subgraphs, int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if sep.N != el.N {
		return nil, 0, fmt.Errorf("partition: separation over %d vertices, graph has %d", sep.N, el.N)
	}
	p := cfg.P()
	d := sep.D()
	sg := &Subgraphs{
		Cfg: cfg, Sep: sep, N: el.N, M: el.M(),
		GPUs:           make([]*GPUGraph, p),
		DelegateOutDeg: make([]int64, d),
	}
	// Replicated delegate directory (out-degrees can change without any
	// subgraph changing hands, so this is never shared).
	for di, v := range sep.DelegateGlobal {
		sg.DelegateOutDeg[di] = sep.OutDeg[v]
	}
	buckets, err := route(el, sep, cfg, sg.DelegateOutDeg, workers)
	if err != nil {
		return nil, 0, err
	}
	build(sg, buckets, prev, workers)

	shared := 0
	for i, g := range sg.GPUs {
		if prev != nil && g == prev.GPUs[i] {
			shared++
		}
		sg.CountNN += g.NN.M()
		sg.CountND += g.ND.M()
		sg.CountDN += g.DN.M()
		sg.CountDD += g.DD.M()
	}
	return sg, shared, nil
}
