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

// Options configures a PageRank run.
type Options struct {
	// Damping is the teleport parameter (default 0.85).
	Damping float64
	// MaxIterations bounds the run (default 20).
	MaxIterations int
	// Tolerance stops early when the L1 delta falls below it (0: run all
	// MaxIterations).
	Tolerance float64
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
		Damping:       0.85,
		MaxIterations: 20,
		GPU:           simgpu.TeslaP100(),
		Net:           simnet.Ray(),
	}
}

// Result reports a PageRank run.
type Result struct {
	Ranks      []float64 // per global vertex, sums to 1
	Iterations int
	SimSeconds float64
	Parts      metrics.Breakdown
	// BytesNormal/BytesDelegate are total exchange volumes, illustrating
	// the §VI-D traffic growth versus BFS.
	BytesNormal   int64
	BytesDelegate int64
}

type gpuState struct {
	pg       *partition.GPUGraph
	dev      *simgpu.Device
	ranks    []float64 // local slots
	acc      []float64 // local accumulator
	accDel   []float64 // delegate accumulator (local share)
	outDeg   []int64   // global out-degree of local vertices (all local)
	bins     *frontier.PairBins
	dangling float64
	delta    float64
	seconds  float64
}

// Run executes PageRank over a partitioned graph on the simulated cluster.
func Run(sg *partition.Subgraphs, shape core.ClusterShape, opts Options) (*Result, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if sg.Cfg != shape.PartitionConfig() {
		return nil, fmt.Errorf("pagerank: graph partitioned for %+v, shape needs %+v",
			sg.Cfg, shape.PartitionConfig())
	}
	if opts.Damping <= 0 || opts.Damping >= 1 {
		opts.Damping = 0.85
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 20
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

	gpus []*gpuState
	// delegateRanks is the replicated delegate state (consistent after
	// every reduction); rank 0 publishes per-iteration results.
	delegateRanks []float64

	mu            sync.Mutex
	simSeconds    float64
	parts         metrics.Breakdown
	iters         int
	bytesNormal   int64
	bytesDelegate int64
}

func (e *engine) build() {
	n := e.sg.N
	init := 1 / float64(n)
	e.gpus = make([]*gpuState, e.p)
	for i, pg := range e.sg.GPUs {
		gs := &gpuState{
			pg:     pg,
			dev:    simgpu.NewDevice(e.opts.GPU, i),
			ranks:  make([]float64, pg.NumLocal),
			acc:    make([]float64, pg.NumLocal),
			accDel: make([]float64, e.d),
			outDeg: make([]int64, pg.NumLocal),
			bins:   frontier.NewPairBins(e.p),
		}
		for slot := int64(0); slot < pg.NumLocal; slot++ {
			v := e.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			if !e.sg.Sep.IsDelegate(v) {
				gs.ranks[slot] = init
			}
			// All edges out of a normal vertex live on its owner, so
			// the local nn+nd degree is the global out-degree.
			gs.outDeg[slot] = pg.NN.Degree(slot) + pg.ND.Degree(slot)
		}
		e.gpus[i] = gs
	}
	e.delegateRanks = make([]float64, e.d)
	for di := range e.delegateRanks {
		e.delegateRanks[di] = init
	}
}

func (e *engine) run() (*Result, error) {
	// Message tags are plain iteration numbers here.
	iterTag := func(tag int) (int, string) { return tag, faults.SiteExchange }
	if err := core.RunRanks(mpi.NewWorld(e.shape.Ranks()), e.opts.Inject, iterTag, e.runRank); err != nil {
		return nil, err
	}
	res := &Result{
		Ranks:         e.gather(),
		Iterations:    e.iters,
		SimSeconds:    e.simSeconds,
		Parts:         e.parts,
		BytesNormal:   e.bytesNormal,
		BytesDelegate: e.bytesDelegate,
	}
	return res, nil
}

func (e *engine) runRank(rank int, comm *mpi.Comm) {
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	myGPUs := e.gpus[rank*pgpu : (rank+1)*pgpu]
	n := float64(e.sg.N)
	damp := e.opts.Damping
	// Per-rank replica of delegate state (consistent across ranks).
	delRanks := append([]float64(nil), e.delegateRanks...)
	delAcc := make([]float64, e.d)

	for iter := 0; iter < e.opts.MaxIterations; iter++ {
		// ---- Fault injection (chaos testing): see core.Session.runRank.
		if in := e.opts.Inject; in != nil {
			in.Crash(rank, iter, faults.SiteIter)
		}
		// ---- Push phase (all local edges).
		for _, gs := range myGPUs {
			gs.seconds = 0
			gs.dangling = 0
			for i := range gs.acc {
				gs.acc[i] = 0
			}
			for i := range gs.accDel {
				gs.accDel[i] = 0
			}
			gs.bins.Reset()
			e.pushNormals(gs)
			e.pushDelegates(gs, delRanks)
		}

		// ---- Delegate contribution sum: local fold then global
		// rank-ordered sum (the §V-A reduction with float payloads).
		for i := range delAcc {
			delAcc[i] = 0
		}
		for _, gs := range myGPUs {
			for i, v := range gs.accDel {
				delAcc[i] += v
			}
		}
		if e.d > 0 {
			comm.AllreduceSumFloat64(delAcc)
		}

		// ---- Normal pair exchange.
		var sentBytes, recvBytes, intraPairs int64
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
		for src := 0; src < prank; src++ {
			if src == rank {
				continue
			}
			buf := comm.Recv(src, iter)
			recvBytes += int64(len(buf))
			slots, err := frontier.UnpackPairsRank(buf, pgpu)
			if err != nil {
				panic(fmt.Errorf("pagerank: corrupt payload: %v: %w", err, wire.ErrCorrupt))
			}
			for s, prs := range slots {
				applyPairs(myGPUs[s], prs)
			}
		}

		// ---- Dangling mass (plus global traffic stats) and rank update.
		sums := []float64{0, float64(sentBytes + 12*intraPairs)}
		for _, gs := range myGPUs {
			sums[0] += gs.dangling
		}
		comm.AllreduceSumFloat64(sums)
		danglingShare := damp * sums[0] / n
		base := (1-damp)/n + danglingShare
		var localDelta float64
		for _, gs := range myGPUs {
			gs.delta = 0
			for slot := range gs.ranks {
				v := e.cfg.GlobalID(uint32(slot), gs.pg.Rank, gs.pg.Slot)
				if e.sg.Sep.IsDelegate(v) {
					continue
				}
				next := base + damp*gs.acc[slot]
				gs.delta += math.Abs(next - gs.ranks[slot])
				gs.ranks[slot] = next
			}
			localDelta += gs.delta
		}
		// Delegate update: identical on every rank from the reduced sums.
		var delDelta float64
		for di := range delRanks {
			next := base + damp*delAcc[di]
			delDelta += math.Abs(next - delRanks[di])
			delRanks[di] = next
		}
		deltas := []float64{localDelta}
		comm.AllreduceSumFloat64(deltas)
		totalDelta := deltas[0] + delDelta

		// ---- Timing (model): compute max across this rank's GPUs, then
		// reduce component maxima across ranks.
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
		aMask := int64(float64(e.d*8) * amp)
		local := e.opts.Net.Staging(aSent) + e.opts.Net.Staging(int64(float64(recvBytes)*amp))
		if e.d > 0 {
			local += e.opts.Net.LocalReduce(aMask, pgpu) + e.opts.Net.LocalBroadcast(aMask, pgpu)
		}
		remoteNormal := e.opts.Net.PointToPoint(aSent, 4<<20)
		var remoteDelegate float64
		if e.d > 0 {
			remoteDelegate = e.opts.Net.Allreduce(aMask, prank, true)
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
			e.bytesNormal += int64(sums[1])
			e.bytesDelegate += e.d * 8
			copy(e.delegateRanks, delRanks)
			e.mu.Unlock()
		}

		if e.opts.Tolerance > 0 && totalDelta < e.opts.Tolerance {
			break
		}
	}
	comm.Barrier()
}

// pushNormals distributes each local normal vertex's rank along its nn and
// nd edges; dangling mass is collected for uniform redistribution.
func (e *engine) pushNormals(gs *gpuState) {
	p64 := int64(e.p)
	self := gs.pg.GPU
	var edges int64
	for slot := int64(0); slot < gs.pg.NumLocal; slot++ {
		v := e.cfg.GlobalID(uint32(slot), gs.pg.Rank, gs.pg.Slot)
		if e.sg.Sep.IsDelegate(v) {
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
			owner := e.cfg.OwnerGPU(dst)
			local := uint32(dst / p64)
			if owner == self {
				gs.acc[local] += c
			} else {
				gs.bins.Add(owner, local, math.Float64bits(c))
			}
		}
		for _, dv := range gs.pg.ND.Neighbors(slot) {
			edges++
			gs.accDel[dv] += c
		}
	}
	gs.seconds += e.charge(gs, simgpu.KernelCost{
		Edges: edges, Vertices: gs.pg.NumLocal, Strategy: simgpu.TWBDynamic,
	})
}

// pushDelegates distributes each delegate's rank along this GPU's share of
// its dd and dn edges, normalized by the delegate's global degree.
func (e *engine) pushDelegates(gs *gpuState, delRanks []float64) {
	var edges int64
	for di := int64(0); di < e.d; di++ {
		deg := e.sg.DelegateOutDeg[di]
		if deg == 0 {
			continue
		}
		c := delRanks[di] / float64(deg)
		for _, dv := range gs.pg.DD.Neighbors(di) {
			edges++
			gs.accDel[dv] += c
		}
		for _, lv := range gs.pg.DN.Neighbors(di) {
			edges++
			gs.acc[lv] += c
		}
	}
	gs.seconds += e.charge(gs, simgpu.KernelCost{
		Edges: edges, Vertices: e.d, Strategy: simgpu.MergePath,
	})
}

func (e *engine) charge(gs *gpuState, c simgpu.KernelCost) float64 {
	c.Edges = int64(float64(c.Edges) * e.opts.WorkAmplification)
	c.Vertices = int64(float64(c.Vertices) * e.opts.WorkAmplification)
	return gs.dev.Charge(c)
}

func applyPairs(gs *gpuState, prs []frontier.Pair) {
	for _, pr := range prs {
		gs.acc[pr.ID] += math.Float64frombits(pr.Val)
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

// gather assembles the global rank vector.
func (e *engine) gather() []float64 {
	out := make([]float64, e.sg.N)
	for _, gs := range e.gpus {
		for slot := int64(0); slot < gs.pg.NumLocal; slot++ {
			v := e.cfg.GlobalID(uint32(slot), gs.pg.Rank, gs.pg.Slot)
			if !e.sg.Sep.IsDelegate(v) {
				out[v] = gs.ranks[slot]
			}
		}
	}
	for di, v := range e.sg.Sep.DelegateGlobal {
		out[v] = e.delegateRanks[di]
	}
	return out
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
