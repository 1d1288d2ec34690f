// Package concomp implements distributed connected components by min-label
// propagation on the paper's degree-separated substrate — a second §VI-D
// generalization alongside PageRank. Delegates carry 64-bit labels combined
// by a global min-reduction (vs BFS's 1-bit OR); normal-vertex proposals
// cross GPUs as (id, label) pairs over the nn edges. Labels converge to the
// minimum global vertex id of each component, which makes validation against
// a serial union-find exact.
package concomp

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

// Options configures a components run: the dense loop's options and nothing
// else. MaxIterations defaults to 64; convergence is bounded by the graph
// diameter, so long-tail graphs need more.
type Options = dense.Options

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{
		MaxIterations: 64,
		GPU:           simgpu.TeslaP100(),
		Net:           simnet.Ray(),
	}
}

// Result reports a components run.
type Result struct {
	// Labels holds the component id (minimum member vertex id) per vertex.
	Labels    []int64
	Converged bool
	dense.Stats
}

type gpuState struct {
	pg      *partition.GPUGraph
	dev     *simgpu.Device
	labels  []int64
	prop    []int64 // incoming proposals (min) for local slots
	propDel []int64 // incoming proposals for delegates (local share)
	changed []bool  // local label changed last iteration (frontier)
}

// Run executes connected components over a partitioned graph.
func Run(sg *partition.Subgraphs, shape core.ClusterShape, opts Options) (*Result, error) {
	if err := opts.Check("concomp", sg, shape, 64); err != nil {
		return nil, err
	}
	gpus, ranks := build(sg, shape, &opts)
	stats, converged, err := dense.Run("concomp", sg, shape, opts, ranks)
	if err != nil {
		return nil, err
	}
	labels := dense.Gather(sg, func(g int) []int64 { return gpus[g].labels }, ranks[0].(*rankState).delLabels)
	return &Result{Labels: labels, Converged: converged, Stats: stats}, nil
}

// rankState is one rank's side of the program (dense.Rank): its GPUs, their
// outgoing proposals and its replica of the delegate labels, consistent across
// ranks after every reduction.
type rankState struct {
	sg         *partition.Subgraphs
	opts       *Options
	gpus       []*gpuState
	bins       *frontier.PairBins
	delLabels  []int64
	delChanged []bool
	delProp    []int64
}

const unset = math.MaxInt64

// build allocates the per-GPU and per-rank state: every vertex starts as its
// own component and proposes in iteration 0.
func build(sg *partition.Subgraphs, shape core.ClusterShape, opts *Options) ([]*gpuState, []dense.Rank) {
	gpus := make([]*gpuState, len(sg.GPUs))
	for i, pg := range sg.GPUs {
		gs := &gpuState{
			pg:      pg,
			dev:     simgpu.NewDevice(opts.GPU, i),
			labels:  make([]int64, pg.NumLocal),
			prop:    make([]int64, pg.NumLocal),
			propDel: make([]int64, sg.D()),
			changed: make([]bool, pg.NumLocal),
		}
		for slot := int64(0); slot < pg.NumLocal; slot++ {
			gs.labels[slot] = sg.Cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			gs.changed[slot] = true
		}
		gpus[i] = gs
	}
	pgpu := shape.GPUsPerRank
	ranks := make([]dense.Rank, shape.Ranks())
	for r := range ranks {
		rs := &rankState{
			sg:         sg,
			opts:       opts,
			gpus:       gpus[r*pgpu : (r+1)*pgpu],
			bins:       frontier.NewPairBins(len(sg.GPUs)),
			delLabels:  append([]int64(nil), sg.Sep.DelegateGlobal...),
			delChanged: make([]bool, sg.D()),
			delProp:    make([]int64, sg.D()),
		}
		for di := range rs.delChanged {
			rs.delChanged[di] = true
		}
		ranks[r] = rs
	}
	return gpus, ranks
}

// Push: changed vertices propose their label along all local edges (the
// frontier optimization every practical label-propagation implementation
// uses).
func (r *rankState) Push() (comp float64) {
	r.bins.Reset()
	for _, gs := range r.gpus {
		for i := range gs.prop {
			gs.prop[i] = unset
		}
		for i := range gs.propDel {
			gs.propDel[i] = unset
		}
		comp = max(comp, r.pushNormals(gs)+r.pushDelegates(gs))
	}
	return comp
}

// ReduceDelegates is the delegate proposal min-reduction (local fold, then
// the global tree reduction of §V-A with 64-bit payloads).
func (r *rankState) ReduceDelegates(comm *mpi.Comm) {
	for i := range r.delProp {
		r.delProp[i] = unset
	}
	for _, gs := range r.gpus {
		for i, v := range gs.propDel {
			if v < r.delProp[i] {
				r.delProp[i] = v
			}
		}
	}
	if len(r.delProp) > 0 {
		comm.AllreduceMin(r.delProp)
	}
}

func (r *rankState) Bins() *frontier.PairBins { return r.bins }

func (r *rankState) Apply(s int, prs []frontier.Pair) {
	gs := r.gpus[s]
	for _, pr := range prs {
		if lbl := int64(pr.Val); lbl < gs.prop[pr.ID] {
			gs.prop[pr.ID] = lbl
		}
	}
}

// Update lowers every label a smaller proposal reached; the run is done when
// no label changed anywhere.
func (r *rankState) Update(comm *mpi.Comm) bool {
	changed := []int64{0}
	for _, gs := range r.gpus {
		for slot := range gs.labels {
			gs.changed[slot] = false
			if p := gs.prop[slot]; p < gs.labels[slot] {
				gs.labels[slot] = p
				gs.changed[slot] = true
				changed[0]++
			}
		}
	}
	comm.AllreduceSum(changed)
	// Delegate update: identical on every rank from the reduced proposals.
	for di := range r.delLabels {
		r.delChanged[di] = false
		if p := r.delProp[di]; p < r.delLabels[di] {
			r.delLabels[di] = p
			r.delChanged[di] = true
			changed[0]++
		}
	}
	return changed[0] == 0
}

// pushNormals proposes changed local labels along nn and nd edges and returns
// the kernel's modelled seconds.
func (r *rankState) pushNormals(gs *gpuState) float64 {
	cfg := r.sg.Cfg
	p64 := int64(cfg.P())
	self := gs.pg.GPU
	var edges, vertices int64
	for slot := int64(0); slot < gs.pg.NumLocal; slot++ {
		if !gs.changed[slot] {
			continue
		}
		v := cfg.GlobalID(uint32(slot), gs.pg.Rank, gs.pg.Slot)
		if r.sg.Sep.IsDelegate(v) {
			continue
		}
		vertices++
		lbl := gs.labels[slot]
		for _, dst := range gs.pg.NN.Neighbors(slot) {
			edges++
			owner := cfg.OwnerGPU(dst)
			local := uint32(dst / p64)
			if owner == self {
				if lbl < gs.prop[local] {
					gs.prop[local] = lbl
				}
			} else {
				r.bins.Add(owner, local, uint64(lbl))
			}
		}
		for _, dv := range gs.pg.ND.Neighbors(slot) {
			edges++
			if lbl < gs.propDel[dv] {
				gs.propDel[dv] = lbl
			}
		}
	}
	return r.opts.Charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: vertices + gs.pg.NumLocal/64, Strategy: simgpu.TWBDynamic,
	})
}

// pushDelegates proposes changed delegate labels along this GPU's dd and dn
// shares and returns the kernel's modelled seconds.
func (r *rankState) pushDelegates(gs *gpuState) float64 {
	var edges int64
	for di := int64(0); di < r.sg.D(); di++ {
		if !r.delChanged[di] {
			continue
		}
		lbl := r.delLabels[di]
		for _, dv := range gs.pg.DD.Neighbors(di) {
			edges++
			if lbl < gs.propDel[dv] {
				gs.propDel[dv] = lbl
			}
		}
		for _, lv := range gs.pg.DN.Neighbors(di) {
			edges++
			if lbl < gs.prop[lv] {
				gs.prop[lv] = lbl
			}
		}
	}
	return r.opts.Charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: r.sg.D() / 64, Strategy: simgpu.MergePath,
	})
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
