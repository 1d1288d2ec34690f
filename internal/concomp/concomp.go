// Package concomp implements distributed connected components by min-label
// propagation on the paper's degree-separated substrate — a second §VI-D
// generalization alongside PageRank. Delegates carry 64-bit labels combined
// by a global min-reduction (vs BFS's 1-bit OR); normal-vertex proposals
// cross GPUs as (id, label) pairs over the nn edges. Labels converge to the
// minimum global vertex id of each component, which makes validation against
// a serial union-find exact.
package concomp

import (
	"fmt"
	"math"
	"sync"

	"gcbfs/internal/core"
	"gcbfs/internal/faults"
	"gcbfs/internal/frontier"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/simgpu"
	"gcbfs/internal/simnet"
	"gcbfs/internal/wire"
)

// Options configures a components run.
type Options struct {
	// MaxIterations bounds label propagation (default 64; convergence is
	// bounded by the graph diameter, so long-tail graphs need more).
	MaxIterations int
	// WorkAmplification scales the timing model (see core.Options).
	WorkAmplification float64
	// Inject arms deterministic fault injection (see core.Options.Inject);
	// nil keeps every decision point on the fault-free fast path.
	Inject *faults.Injector

	GPU simgpu.Spec
	Net simnet.Spec
}

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
	Labels        []int64
	Iterations    int
	Converged     bool
	SimSeconds    float64
	Parts         metrics.Breakdown
	BytesNormal   int64
	BytesDelegate int64
}

type gpuState struct {
	pg      *partition.GPUGraph
	dev     *simgpu.Device
	labels  []int64
	prop    []int64 // incoming proposals (min) for local slots
	propDel []int64 // incoming proposals for delegates (local share)
	changed []bool  // local label changed last iteration (frontier)
	bins    *frontier.PairBins
	seconds float64
}

// Run executes connected components over a partitioned graph.
func Run(sg *partition.Subgraphs, shape core.ClusterShape, opts Options) (*Result, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if sg.Cfg != shape.PartitionConfig() {
		return nil, fmt.Errorf("concomp: graph partitioned for %+v, shape needs %+v",
			sg.Cfg, shape.PartitionConfig())
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 64
	}
	if opts.WorkAmplification <= 0 {
		opts.WorkAmplification = 1
	}
	if opts.GPU.EdgeRateMerge == 0 {
		opts.GPU = simgpu.TeslaP100()
	}
	if opts.Net.IB.Bandwidth == 0 {
		opts.Net = simnet.Ray()
	}
	e := &engine{sg: sg, shape: shape, opts: opts, cfg: sg.Cfg, p: sg.Cfg.P(), d: sg.D()}
	e.build()
	return e.run()
}

type engine struct {
	sg    *partition.Subgraphs
	shape core.ClusterShape
	opts  Options
	cfg   partition.Config
	p     int
	d     int64

	gpus            []*gpuState
	delegateLabels  []int64 // published by rank 0
	delegateChanged []bool

	mu            sync.Mutex
	simSeconds    float64
	parts         metrics.Breakdown
	iters         int
	converged     bool
	bytesNormal   int64
	bytesDelegate int64
}

const unset = math.MaxInt64

func (e *engine) build() {
	e.gpus = make([]*gpuState, e.p)
	for i, pg := range e.sg.GPUs {
		gs := &gpuState{
			pg:      pg,
			dev:     simgpu.NewDevice(e.opts.GPU, i),
			labels:  make([]int64, pg.NumLocal),
			prop:    make([]int64, pg.NumLocal),
			propDel: make([]int64, e.d),
			changed: make([]bool, pg.NumLocal),
			bins:    frontier.NewPairBins(e.p),
		}
		for slot := int64(0); slot < pg.NumLocal; slot++ {
			gs.labels[slot] = e.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			gs.changed[slot] = true // everyone proposes in iteration 0
		}
		e.gpus[i] = gs
	}
	e.delegateLabels = make([]int64, e.d)
	e.delegateChanged = make([]bool, e.d)
	for di, v := range e.sg.Sep.DelegateGlobal {
		e.delegateLabels[di] = v
		e.delegateChanged[di] = true
	}
}

func (e *engine) run() (*Result, error) {
	// Message tags are plain iteration numbers here.
	iterTag := func(tag int) (int, string) { return tag, faults.SiteExchange }
	if err := core.RunRanks(mpi.NewWorld(e.shape.Ranks()), e.opts.Inject, iterTag, e.runRank); err != nil {
		return nil, err
	}
	return &Result{
		Labels:        e.gather(),
		Iterations:    e.iters,
		Converged:     e.converged,
		SimSeconds:    e.simSeconds,
		Parts:         e.parts,
		BytesNormal:   e.bytesNormal,
		BytesDelegate: e.bytesDelegate,
	}, nil
}

func (e *engine) runRank(rank int, comm *mpi.Comm) {
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	myGPUs := e.gpus[rank*pgpu : (rank+1)*pgpu]
	delLabels := append([]int64(nil), e.delegateLabels...)
	delChanged := append([]bool(nil), e.delegateChanged...)
	delProp := make([]int64, e.d)

	for iter := 0; iter < e.opts.MaxIterations; iter++ {
		// ---- Fault injection (chaos testing): see core.Session.runRank.
		if in := e.opts.Inject; in != nil {
			in.Crash(rank, iter, faults.SiteIter)
		}
		// ---- Push phase: changed vertices propose their label along
		// all local edges (the frontier optimization every practical
		// label-propagation implementation uses).
		for _, gs := range myGPUs {
			gs.seconds = 0
			for i := range gs.prop {
				gs.prop[i] = unset
			}
			for i := range gs.propDel {
				gs.propDel[i] = unset
			}
			gs.bins.Reset()
			e.pushNormals(gs)
			e.pushDelegates(gs, delLabels, delChanged)
		}

		// ---- Delegate proposal min-reduction (local fold, then the
		// global tree reduction of §V-A with 64-bit payloads).
		for i := range delProp {
			delProp[i] = unset
		}
		for _, gs := range myGPUs {
			for i, v := range gs.propDel {
				if v < delProp[i] {
					delProp[i] = v
				}
			}
		}
		if e.d > 0 {
			comm.AllreduceMin(delProp)
		}

		// ---- Normal pair exchange.
		var sentBytes, intraPairs int64
		for dst := 0; dst < prank; dst++ {
			if dst == rank {
				for s := 0; s < pgpu; s++ {
					for _, src := range myGPUs {
						prs := src.bins.PerGPU[rank*pgpu+s]
						intraPairs += int64(len(prs))
						applyPairs(myGPUs[s], prs)
					}
				}
				continue
			}
			payload := packForRank(myGPUs, dst, pgpu)
			sentBytes += int64(len(payload))
			comm.Isend(dst, iter, payload)
		}
		var recvBytes int64
		for src := 0; src < prank; src++ {
			if src == rank {
				continue
			}
			buf := comm.Recv(src, iter)
			recvBytes += int64(len(buf))
			slots, err := frontier.UnpackPairsRank(buf, pgpu)
			if err != nil {
				panic(fmt.Errorf("concomp: corrupt payload: %v: %w", err, wire.ErrCorrupt))
			}
			for s, prs := range slots {
				applyPairs(myGPUs[s], prs)
			}
		}

		// ---- Label updates.
		var localChanged int64
		for _, gs := range myGPUs {
			for slot := range gs.labels {
				gs.changed[slot] = false
				if p := gs.prop[slot]; p < gs.labels[slot] {
					gs.labels[slot] = p
					gs.changed[slot] = true
					localChanged++
				}
			}
		}
		var delegateChangedCount int64
		for di := range delLabels {
			delChanged[di] = false
			if p := delProp[di]; p < delLabels[di] {
				delLabels[di] = p
				delChanged[di] = true
				delegateChangedCount++
			}
		}
		stats := []int64{localChanged, sentBytes + 12*intraPairs}
		comm.AllreduceSum(stats)
		anyChange := stats[0]+delegateChangedCount > 0

		// ---- Timing.
		amp := e.opts.WorkAmplification
		var comp float64
		for _, gs := range myGPUs {
			if gs.seconds > comp {
				comp = gs.seconds
			}
		}
		// Injected stall: timing skew only, results stay bit-identical.
		if in := e.opts.Inject; in != nil {
			comp += in.Stall(rank, iter, faults.SiteIter)
		}
		aSent := int64(float64(sentBytes) * amp)
		aLabels := int64(float64(e.d*8) * amp)
		local := e.opts.Net.Staging(aSent) + e.opts.Net.Staging(int64(float64(recvBytes)*amp))
		if e.d > 0 {
			local += e.opts.Net.LocalReduce(aLabels, pgpu) + e.opts.Net.LocalBroadcast(aLabels, pgpu)
		}
		remoteNormal := e.opts.Net.PointToPoint(aSent, 4<<20)
		var remoteDelegate float64
		if e.d > 0 {
			remoteDelegate = e.opts.Net.Allreduce(aLabels, prank, true)
		}
		vec := []int64{int64(math.Float64bits(comp)), int64(math.Float64bits(local)),
			int64(math.Float64bits(remoteNormal)), int64(math.Float64bits(remoteDelegate))}
		comm.AllreduceMax(vec)
		parts := metrics.Breakdown{
			Computation:    math.Float64frombits(uint64(vec[0])),
			LocalComm:      math.Float64frombits(uint64(vec[1])),
			RemoteNormal:   math.Float64frombits(uint64(vec[2])),
			RemoteDelegate: math.Float64frombits(uint64(vec[3])),
		}
		elapsed := parts.Sum() - 0.35*math.Min(parts.Computation,
			parts.RemoteNormal+parts.RemoteDelegate)

		if rank == 0 {
			e.mu.Lock()
			e.simSeconds += elapsed
			e.parts.Add(parts)
			e.iters++
			e.bytesNormal += stats[1]
			e.bytesDelegate += e.d * 8
			copy(e.delegateLabels, delLabels)
			if !anyChange {
				e.converged = true
			}
			e.mu.Unlock()
		}
		if !anyChange {
			break
		}
	}
	comm.Barrier()
}

// pushNormals proposes changed local labels along nn and nd edges.
func (e *engine) pushNormals(gs *gpuState) {
	p64 := int64(e.p)
	self := gs.pg.GPU
	var edges, vertices int64
	for slot := int64(0); slot < gs.pg.NumLocal; slot++ {
		if !gs.changed[slot] {
			continue
		}
		v := e.cfg.GlobalID(uint32(slot), gs.pg.Rank, gs.pg.Slot)
		if e.sg.Sep.IsDelegate(v) {
			continue
		}
		vertices++
		lbl := gs.labels[slot]
		for _, dst := range gs.pg.NN.Neighbors(slot) {
			edges++
			owner := e.cfg.OwnerGPU(dst)
			local := uint32(dst / p64)
			if owner == self {
				if lbl < gs.prop[local] {
					gs.prop[local] = lbl
				}
			} else {
				gs.bins.Add(owner, local, uint64(lbl))
			}
		}
		for _, dv := range gs.pg.ND.Neighbors(slot) {
			edges++
			if lbl < gs.propDel[dv] {
				gs.propDel[dv] = lbl
			}
		}
	}
	gs.seconds += e.charge(gs, simgpu.KernelCost{
		Edges: edges, Vertices: vertices + gs.pg.NumLocal/64, Strategy: simgpu.TWBDynamic,
	})
}

// pushDelegates proposes changed delegate labels along this GPU's dd and dn
// shares.
func (e *engine) pushDelegates(gs *gpuState, delLabels []int64, delChanged []bool) {
	var edges int64
	for di := int64(0); di < e.d; di++ {
		if !delChanged[di] {
			continue
		}
		lbl := delLabels[di]
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
	gs.seconds += e.charge(gs, simgpu.KernelCost{
		Edges: edges, Vertices: e.d / 64, Strategy: simgpu.MergePath,
	})
}

func (e *engine) charge(gs *gpuState, c simgpu.KernelCost) float64 {
	c.Edges = int64(float64(c.Edges) * e.opts.WorkAmplification)
	c.Vertices = int64(float64(c.Vertices) * e.opts.WorkAmplification)
	return gs.dev.Charge(c)
}

func applyPairs(gs *gpuState, prs []frontier.Pair) {
	for _, pr := range prs {
		if lbl := int64(pr.Val); lbl < gs.prop[pr.ID] {
			gs.prop[pr.ID] = lbl
		}
	}
}

func packForRank(myGPUs []*gpuState, dst, pgpu int) []byte {
	merged := frontier.NewPairBins(pgpu)
	for s := 0; s < pgpu; s++ {
		dstGPU := dst*pgpu + s
		for _, gs := range myGPUs {
			merged.PerGPU[s] = append(merged.PerGPU[s], gs.bins.PerGPU[dstGPU]...)
		}
	}
	return merged.PackRank(0, pgpu)
}

// gather assembles global labels.
func (e *engine) gather() []int64 {
	out := make([]int64, e.sg.N)
	for _, gs := range e.gpus {
		for slot := int64(0); slot < gs.pg.NumLocal; slot++ {
			v := e.cfg.GlobalID(uint32(slot), gs.pg.Rank, gs.pg.Slot)
			if !e.sg.Sep.IsDelegate(v) {
				out[v] = gs.labels[slot]
			}
		}
	}
	for di, v := range e.sg.Sep.DelegateGlobal {
		out[v] = e.delegateLabels[di]
	}
	return out
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
