// Package pagerank implements distributed PageRank on the paper's
// degree-separated substrate — the §VI-D generalization: "Other graph
// algorithms require more bits of state for delegates — for example,
// ranking scores for PageRank — and associative values for normal vertices
// in addition to the vertex numbers themselves."
//
// The structure mirrors the BFS engine: delegates are replicated and their
// per-iteration rank contributions are combined by a global sum-reduction
// (float64 per delegate — 64× the BFS mask traffic); normal-vertex
// contributions cross GPUs as (id, value) pairs over the nn edges (12 bytes
// per edge instead of BFS's 4). Computation touches every edge every
// iteration (O(m), ≫ DOBFS workload), so per the paper's argument the
// computation-to-communication ratio stays favourable and the model scales.
package pagerank

import (
	"math"

	"gcbfs/internal/core"
	"gcbfs/internal/dense"
	"gcbfs/internal/frontier"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/simgpu"
	"gcbfs/internal/simnet"
)

// Options configures a PageRank run. MaxIterations defaults to 20.
type Options struct {
	dense.Options
	// Damping is the teleport parameter (default 0.85).
	Damping float64
	// Tolerance stops early when the L1 delta falls below it (0: run all
	// MaxIterations).
	Tolerance float64
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{
		Options: dense.Options{
			MaxIterations: 20,
			GPU:           simgpu.TeslaP100(),
			Net:           simnet.Ray(),
		},
		Damping: 0.85,
	}
}

// Result reports a PageRank run.
type Result struct {
	Ranks []float64 // per global vertex, sums to 1
	dense.Stats
}

type gpuState struct {
	pg       *partition.GPUGraph
	dev      *simgpu.Device
	ranks    []float64 // local slots
	acc      []float64 // local accumulator
	accDel   []float64 // delegate accumulator (local share)
	outDeg   []int64   // global out-degree of local vertices (all local)
	dangling float64
}

// Run executes PageRank over a partitioned graph on the simulated cluster.
func Run(sg *partition.Subgraphs, shape core.ClusterShape, opts Options) (*Result, error) {
	if err := opts.Check("pagerank", sg, shape, 20); err != nil {
		return nil, err
	}
	if opts.Damping <= 0 || opts.Damping >= 1 {
		opts.Damping = 0.85
	}
	gpus, ranks := build(sg, shape, &opts)
	stats, _, err := dense.Run("pagerank", sg, shape, opts.Options, ranks)
	if err != nil {
		return nil, err
	}
	scores := dense.Gather(sg, func(g int) []float64 { return gpus[g].ranks }, ranks[0].(*rankState).delRanks)
	return &Result{Ranks: scores, Stats: stats}, nil
}

// rankState is one rank's side of the program (dense.Rank): its GPUs, their
// outgoing contributions and its replica of the delegate scores, consistent
// across ranks after every reduction.
type rankState struct {
	sg       *partition.Subgraphs
	opts     *Options
	gpus     []*gpuState
	bins     *frontier.PairBins
	delRanks []float64
	delAcc   []float64
}

func build(sg *partition.Subgraphs, shape core.ClusterShape, opts *Options) ([]*gpuState, []dense.Rank) {
	init := 1 / float64(sg.N)
	gpus := make([]*gpuState, len(sg.GPUs))
	for i, pg := range sg.GPUs {
		gs := &gpuState{
			pg:     pg,
			dev:    simgpu.NewDevice(opts.GPU, i),
			ranks:  make([]float64, pg.NumLocal),
			acc:    make([]float64, pg.NumLocal),
			accDel: make([]float64, sg.D()),
			outDeg: make([]int64, pg.NumLocal),
		}
		for slot := int64(0); slot < pg.NumLocal; slot++ {
			v := sg.Cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			if !sg.Sep.IsDelegate(v) {
				gs.ranks[slot] = init
			}
			// All edges out of a normal vertex live on its owner, so
			// the local nn+nd degree is the global out-degree.
			gs.outDeg[slot] = pg.NN.Degree(slot) + pg.ND.Degree(slot)
		}
		gpus[i] = gs
	}
	pgpu := shape.GPUsPerRank
	ranks := make([]dense.Rank, shape.Ranks())
	for r := range ranks {
		rs := &rankState{
			sg:       sg,
			opts:     opts,
			gpus:     gpus[r*pgpu : (r+1)*pgpu],
			bins:     frontier.NewPairBins(len(sg.GPUs)),
			delRanks: make([]float64, sg.D()),
			delAcc:   make([]float64, sg.D()),
		}
		for di := range rs.delRanks {
			rs.delRanks[di] = init
		}
		ranks[r] = rs
	}
	return gpus, ranks
}

// Push runs the push phase over all local edges.
func (r *rankState) Push() (comp float64) {
	r.bins.Reset()
	for _, gs := range r.gpus {
		gs.dangling = 0
		for i := range gs.acc {
			gs.acc[i] = 0
		}
		for i := range gs.accDel {
			gs.accDel[i] = 0
		}
		comp = max(comp, r.pushNormals(gs)+r.pushDelegates(gs))
	}
	return comp
}

// ReduceDelegates is the delegate contribution sum: local fold then global
// rank-ordered sum (the §V-A reduction with float payloads).
func (r *rankState) ReduceDelegates(comm *mpi.Comm) {
	for i := range r.delAcc {
		r.delAcc[i] = 0
	}
	for _, gs := range r.gpus {
		for i, v := range gs.accDel {
			r.delAcc[i] += v
		}
	}
	if len(r.delAcc) > 0 {
		comm.AllreduceSumFloat64(r.delAcc)
	}
}

func (r *rankState) Bins() *frontier.PairBins { return r.bins }

func (r *rankState) Apply(s int, prs []frontier.Pair) {
	gs := r.gpus[s]
	for _, pr := range prs {
		gs.acc[pr.ID] += math.Float64frombits(pr.Val)
	}
}

// Update redistributes the dangling mass and moves every score to its next
// value; with a tolerance set, the run is done once the global L1 delta
// falls below it.
func (r *rankState) Update(comm *mpi.Comm) bool {
	n := float64(r.sg.N)
	damp := r.opts.Damping
	dangling := []float64{0}
	for _, gs := range r.gpus {
		dangling[0] += gs.dangling
	}
	comm.AllreduceSumFloat64(dangling)
	base := (1-damp)/n + damp*dangling[0]/n
	delta := []float64{0}
	for _, gs := range r.gpus {
		var gpuDelta float64
		for slot := range gs.ranks {
			v := r.sg.Cfg.GlobalID(uint32(slot), gs.pg.Rank, gs.pg.Slot)
			if r.sg.Sep.IsDelegate(v) {
				continue
			}
			next := base + damp*gs.acc[slot]
			gpuDelta += math.Abs(next - gs.ranks[slot])
			gs.ranks[slot] = next
		}
		delta[0] += gpuDelta
	}
	// Delegate update: identical on every rank from the reduced sums.
	var delDelta float64
	for di := range r.delRanks {
		next := base + damp*r.delAcc[di]
		delDelta += math.Abs(next - r.delRanks[di])
		r.delRanks[di] = next
	}
	comm.AllreduceSumFloat64(delta)
	return r.opts.Tolerance > 0 && delta[0]+delDelta < r.opts.Tolerance
}

// pushNormals distributes each local normal vertex's rank along its nn and
// nd edges and returns the kernel's modelled seconds; dangling mass is
// collected for uniform redistribution.
func (r *rankState) pushNormals(gs *gpuState) float64 {
	cfg := r.sg.Cfg
	p64 := int64(cfg.P())
	self := gs.pg.GPU
	var edges int64
	for slot := int64(0); slot < gs.pg.NumLocal; slot++ {
		v := cfg.GlobalID(uint32(slot), gs.pg.Rank, gs.pg.Slot)
		if r.sg.Sep.IsDelegate(v) {
			continue
		}
		deg := gs.outDeg[slot]
		if deg == 0 {
			gs.dangling += gs.ranks[slot]
			continue
		}
		c := gs.ranks[slot] / float64(deg)
		for _, dst := range gs.pg.NN.Neighbors(slot) {
			edges++
			owner := cfg.OwnerGPU(dst)
			local := uint32(dst / p64)
			if owner == self {
				gs.acc[local] += c
			} else {
				r.bins.Add(owner, local, math.Float64bits(c))
			}
		}
		for _, dv := range gs.pg.ND.Neighbors(slot) {
			edges++
			gs.accDel[dv] += c
		}
	}
	return r.opts.Charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: gs.pg.NumLocal, Strategy: simgpu.TWBDynamic,
	})
}

// pushDelegates distributes each delegate's rank along this GPU's share of
// its dd and dn edges, normalized by the delegate's global degree, and
// returns the kernel's modelled seconds.
func (r *rankState) pushDelegates(gs *gpuState) float64 {
	var edges int64
	for di := int64(0); di < r.sg.D(); di++ {
		deg := r.sg.DelegateOutDeg[di]
		if deg == 0 {
			continue
		}
		c := r.delRanks[di] / float64(deg)
		for _, dv := range gs.pg.DD.Neighbors(di) {
			edges++
			gs.accDel[dv] += c
		}
		for _, lv := range gs.pg.DN.Neighbors(di) {
			edges++
			gs.acc[lv] += c
		}
	}
	return r.opts.Charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: r.sg.D(), Strategy: simgpu.MergePath,
	})
}

// Serial computes the reference PageRank on a full edge list with identical
// semantics (push-style, uniform dangling redistribution) for validation.
func Serial(n int64, edges func(yield func(u, v int64)), outDeg []int64, damping float64, iterations int) []float64 {
	ranks := make([]float64, n)
	acc := make([]float64, n)
	init := 1 / float64(n)
	for i := range ranks {
		ranks[i] = init
	}
	for it := 0; it < iterations; it++ {
		for i := range acc {
			acc[i] = 0
		}
		var dangling float64
		for v := int64(0); v < n; v++ {
			if outDeg[v] == 0 {
				dangling += ranks[v]
			}
		}
		edges(func(u, v int64) {
			acc[v] += ranks[u] / float64(outDeg[u])
		})
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := int64(0); v < n; v++ {
			ranks[v] = base + damping*acc[v]
		}
	}
	return ranks
}
