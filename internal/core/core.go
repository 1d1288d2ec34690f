// Package core implements the paper's contribution: distributed
// direction-optimizing breadth-first search on a (simulated) GPU cluster,
// built on degree separation (§III), per-subgraph local traversal kernels
// with distinct load-balancing and direction-switching policies (§IV), and
// the two-tier communication model — global bitmask reduction for delegates,
// point-to-point exchange for normal vertices (§V).
//
// The engine is functionally exact: hop distances equal a serial BFS.
// Performance is simulated: kernels and transfers charge calibrated model
// time (internal/simgpu, internal/simnet) from exactly counted work and
// bytes, so the figures' scaling shapes are reproducible on any host.
//
// # Plan and Session
//
// The execution machinery is split query-service style. A Plan is the
// immutable half: the partitioned graph, cluster shape and normalized base
// Options, built once per partition and safe to share between any number of
// concurrent queries. A Session is the mutable half: frontiers, visited
// bitmasks, wire buffers and exchange scratch for one in-flight BFS query.
// Sessions are recycled through a sync.Pool inside the Plan, so concurrent
// queries share one partitioned graph with zero cross-query aliasing — each
// query runs on its own Session, fully reset between uses.
//
// Plan.Run executes one query with per-query Overrides (compression,
// exchange topology, collection flags, work amplification) layered over the
// base Options without re-partitioning; Plan.RunBatch executes many sources
// with bounded parallelism and deterministic, source-ordered results.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/faults"
	"gcbfs/internal/frontier"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/simgpu"
	"gcbfs/internal/simnet"
	"gcbfs/internal/wire"
)

// ClusterShape is the paper's hardware notation: nodes × MPI ranks per node
// × GPUs per rank (e.g. 31×2×2 = 124 GPUs).
type ClusterShape struct {
	Nodes        int
	RanksPerNode int
	GPUsPerRank  int
}

// Ranks returns the MPI rank count p_rank.
func (s ClusterShape) Ranks() int { return s.Nodes * s.RanksPerNode }

// P returns the total GPU count.
func (s ClusterShape) P() int { return s.Ranks() * s.GPUsPerRank }

// PartitionConfig returns the matching edge-distributor configuration.
func (s ClusterShape) PartitionConfig() partition.Config {
	return partition.Config{Ranks: s.Ranks(), GPUsPerRank: s.GPUsPerRank}
}

// String renders the paper's N×R×G notation.
func (s ClusterShape) String() string {
	return fmt.Sprintf("%d×%d×%d", s.Nodes, s.RanksPerNode, s.GPUsPerRank)
}

// Validate checks the shape is usable.
func (s ClusterShape) Validate() error {
	if s.Nodes <= 0 || s.RanksPerNode <= 0 || s.GPUsPerRank <= 0 {
		return fmt.Errorf("core: invalid cluster shape %s", s)
	}
	return nil
}

// SwitchFactors hold the two direction-switching thresholds of one subgraph
// (§IV-B): switch forward→backward when FV > Fwd2Bwd·BV; backward→forward
// when FV < Bwd2Fwd·BV.
type SwitchFactors struct {
	Fwd2Bwd float64 // factor0
	Bwd2Fwd float64 // factor1
}

// Options are the engine's tunables, mirroring the paper's option list
// (§VI-B): DO, L (local all2all), U (uniquify), BR/IR (blocking vs
// non-blocking delegate mask reduction).
type Options struct {
	// DirectionOptimized enables per-subgraph direction switching for the
	// dd, dn and nd kernels (nn never uses DO, §IV-B). A repair wave always
	// runs forward: improving preloaded levels has no backward form.
	DirectionOptimized bool
	// LocalAll2All runs the intra-rank aggregation of outgoing normal
	// vertices peer-to-peer between the rank's GPUs (§V-B); without it the
	// copies bounce through CPU staging buffers and cross NVLink twice
	// (aggregationBytes).
	LocalAll2All bool
	// Uniquify removes duplicate destinations within a send bin (§V-B), at
	// the price of its own sort-and-compact kernel. The uncompressed exchange
	// ships multisets, so there it is the only thing that drops a repeat;
	// with a codec active the stage drops them anyway (mergeForRank) and U
	// changes no byte on the wire.
	Uniquify bool
	// BlockingReduce selects MPI_Allreduce (true, "BR") over
	// MPI_Iallreduce ("IR") for the delegate masks (§VI-B).
	BlockingReduce bool
	// FactorsDD/DN/ND are the per-subgraph direction-switching factors;
	// the paper's tuned values are (0.5, 0.05, 1e-7) with no switch-back.
	FactorsDD, FactorsDN, FactorsND SwitchFactors
	// MessageBytes is the packing size for remote exchanges (≈4 MB is
	// optimal on Ray, §VI-A1).
	MessageBytes int64
	// OverlapFactor is the fraction of overlappable compute/communication
	// time actually hidden by the stream pipeline (the paper observed
	// ~10% total savings; 0.35 of the overlappable window matches that).
	OverlapFactor float64
	// CollectLevels gathers the global hop-distance array into the
	// result (disable for large weak-scaling sweeps).
	CollectLevels bool
	// CollectParents additionally produces the Graph500 BFS tree, the
	// canonical min-id tree of the hop distances (parents.go): the delegate
	// tier's dd parents recorded by the traversal's own kernels, an nd pass,
	// one pair round for remote nn destinations — the low-cost step the paper
	// describes (§VI-A3) — and one stripe min-fold that brings each
	// delegate's candidates to the rank that writes it. It needs fewer than 2^32
	// vertices. Parent resolution is excluded from simulated BFS time,
	// matching the paper's reporting.
	CollectParents bool
	// ForceTWBForDD replaces the dd kernel's merge-path load balancing
	// with thread-warp-block dynamic mapping — an ablation knob for the
	// §IV-A strategy choice (the dd subgraph's wide degree range is
	// exactly where TWB pays its skew penalty).
	ForceTWBForDD bool
	// Compression selects the frontier-exchange codec (internal/wire) for
	// the inter-rank normal-vertex payloads, one of two modes: wire.ModeOff
	// is the paper's fixed-width packing (raw blocks charged 4 bytes per id
	// and no codec compute — a charging rule, not a second format);
	// wire.ModeAdaptive picks the smallest of raw / varint-delta / bitmap
	// per id block, of raw / sparse per mask section and of raw / packed per
	// pairs block, a pure function of the block.
	// The codec changes bytes on the wire (and hence the simulated
	// remote-normal time) but never the traversal results. Its pack/unpack
	// compute is charged through simgpu.Spec.CodecRate.
	Compression wire.Mode
	// Exchange selects the inter-rank normal-vertex exchange policy:
	// ExchangeAllPairs sends one message per destination rank per iteration
	// (p−1 sends, the paper's §V-B pattern); ExchangeButterfly runs
	// hypercube hops that aggregate payloads into fewer, larger messages
	// (ButterFly BFS, Green 2021), generalized to arbitrary rank counts by
	// a Bruck-style pre/post cleanup hop pair; ExchangeHybrid picks between
	// the two per BSP iteration from the globally known frontier volume
	// through a cost model over the simnet link parameters — the way
	// direction optimization picks push vs pull. It applies to every
	// traversal alike — Run, Repair and RunSweep, whose records ride the same
	// exchangers. Whatever the policy, the traversal results are
	// bit-identical; only message pattern and timing change.
	Exchange Exchange
	// WorkAmplification scales all counted work and communication volume
	// before the timing model (not the functional run or reported work
	// stats). Setting it to 2^(paperScale-localScale) makes a scaled-down
	// local graph occupy the paper's per-GPU workload regime, so the
	// overhead-vs-work balance — and hence every figure's shape — matches
	// cluster scale. 0 or 1 disables amplification.
	WorkAmplification float64
	// Inject arms deterministic fault injection (chaos testing): payload
	// faults fire through the communicator's send hook, boundary faults
	// (stall, crash) at the BSP iteration boundary. nil — the default —
	// leaves every decision point on its fault-free fast path, so an unarmed
	// engine's results, wire bytes and timing are byte-identical to a build
	// without the machinery.
	Inject *faults.Injector

	GPU simgpu.Spec
	Net simnet.Spec
}

// DefaultOptions returns the paper's tuned configuration: DOBFS with
// blocking reduction, 4 MB messages and the published switching factors.
func DefaultOptions() Options {
	return Options{
		DirectionOptimized: true,
		LocalAll2All:       false,
		Uniquify:           false,
		BlockingReduce:     true,
		FactorsDD:          SwitchFactors{Fwd2Bwd: 0.5},
		FactorsDN:          SwitchFactors{Fwd2Bwd: 0.05},
		FactorsND:          SwitchFactors{Fwd2Bwd: 1e-7},
		MessageBytes:       4 << 20,
		OverlapFactor:      0.35,
		CollectLevels:      true,
		GPU:                simgpu.TeslaP100(),
		Net:                simnet.Ray(),
	}
}

// Plan is the immutable, shareable half of a BFS deployment: the partitioned
// graph, the cluster shape and the normalized base Options. A Plan is built
// once per partition and is safe for concurrent use — every mutable byte of
// a query lives in a Session drawn from the Plan's internal pool.
type Plan struct {
	sg    *partition.Subgraphs
	shape ClusterShape
	base  Options
	cfg   partition.Config
	p     int
	d     int64
	// epoch identifies the graph version this plan was built for. Plans are
	// immutable, so a mutating service builds the next epoch's Plan beside
	// the live one and swaps atomically; every query result carries the
	// epoch of the plan it ran on (NewPlan leaves it 0).
	epoch uint64
	// homes is the plan's delegate home slots, built on its first repair.
	homes delegateHomes

	pool sync.Pool // of *Session
	// Pool observability (PoolStats): how often a query reused a recycled
	// Session vs allocated a fresh one, and the high-water mark of
	// simultaneously in-flight queries — the number that sizes Parallelism.
	poolAcquires atomic.Int64
	poolMisses   atomic.Int64
	inFlight     atomic.Int64
	peakInFlight atomic.Int64
}

// NewPlan validates that the partitioned graph matches the cluster shape,
// normalizes the base options, and prepares the session pool.
func NewPlan(sg *partition.Subgraphs, shape ClusterShape, opts Options) (*Plan, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if sg.Cfg != shape.PartitionConfig() {
		return nil, fmt.Errorf("core: graph partitioned for %+v, cluster shape needs %+v",
			sg.Cfg, shape.PartitionConfig())
	}
	if opts.MessageBytes <= 0 {
		opts.MessageBytes = 4 << 20
	}
	if opts.GPU.EdgeRateMerge == 0 {
		opts.GPU = simgpu.TeslaP100()
	}
	if opts.Net.IB.Bandwidth == 0 {
		opts.Net = simnet.Ray()
	}
	if opts.WorkAmplification <= 0 {
		opts.WorkAmplification = 1
	}
	if opts.Compression < wire.ModeOff || opts.Compression > wire.ModeAdaptive {
		return nil, fmt.Errorf("core: invalid compression mode %d", opts.Compression)
	}
	if opts.Exchange < ExchangeAllPairs || opts.Exchange > ExchangeHybrid {
		return nil, fmt.Errorf("core: invalid exchange strategy %d", opts.Exchange)
	}
	p := &Plan{
		sg:    sg,
		shape: shape,
		base:  opts,
		cfg:   sg.Cfg,
		p:     sg.Cfg.P(),
		d:     sg.D(),
	}
	p.pool.New = func() any {
		p.poolMisses.Add(1)
		return p.newSession()
	}
	return p, nil
}

// NewPlanEpoch builds a Plan stamped with a graph-version epoch. Every query
// result produced by the plan (Run, Repair, RunSweep) reports the epoch,
// which is how an epoch-versioned service proves a query ran entirely on its
// admission version across an atomic swap.
func NewPlanEpoch(sg *partition.Subgraphs, shape ClusterShape, opts Options, epoch uint64) (*Plan, error) {
	p, err := NewPlan(sg, shape, opts)
	if err != nil {
		return nil, err
	}
	p.epoch = epoch
	return p, nil
}

// Epoch returns the graph-version epoch the plan was built for.
func (p *Plan) Epoch() uint64 { return p.epoch }

// PoolStats is a snapshot of the Plan's session-pool counters. Counters are
// cumulative over the Plan's lifetime; callers diff snapshots to scope them
// to one batch.
type PoolStats struct {
	// Hits counts queries served by a recycled pooled Session; Misses
	// counts queries that allocated a fresh one (every query is exactly one
	// of the two).
	Hits, Misses int64
	// PeakInFlight is the high-water mark of simultaneously in-flight
	// queries — the observed concurrency that Parallelism should be sized
	// against.
	PeakInFlight int64
}

// PoolStats returns the current session-pool counters.
func (p *Plan) PoolStats() PoolStats {
	acq := p.poolAcquires.Load()
	misses := p.poolMisses.Load()
	return PoolStats{
		Hits:         acq - misses,
		Misses:       misses,
		PeakInFlight: p.peakInFlight.Load(),
	}
}

// Overrides are per-query deltas layered over a Plan's base Options. Only
// knobs that leave the partitioned graph and per-session buffer shapes
// untouched are overridable — changing the cluster shape, threshold or
// kernel policies needs a new Plan. A nil field keeps the base value.
type Overrides struct {
	Compression    *wire.Mode
	Exchange       *Exchange
	CollectLevels  *bool
	CollectParents *bool
}

// effectiveOptions resolves base options plus overrides, validating the
// overridden values the same way NewPlan validates the base.
func (p *Plan) effectiveOptions(ov Overrides) (Options, error) {
	o := p.base
	if ov.Compression != nil {
		if *ov.Compression < wire.ModeOff || *ov.Compression > wire.ModeAdaptive {
			return o, fmt.Errorf("core: invalid compression override %d", *ov.Compression)
		}
		o.Compression = *ov.Compression
	}
	if ov.Exchange != nil {
		if *ov.Exchange < ExchangeAllPairs || *ov.Exchange > ExchangeHybrid {
			return o, fmt.Errorf("core: invalid exchange override %d", *ov.Exchange)
		}
		o.Exchange = *ov.Exchange
	}
	if ov.CollectLevels != nil {
		o.CollectLevels = *ov.CollectLevels
	}
	if ov.CollectParents != nil {
		o.CollectParents = *ov.CollectParents
	}
	if o.CollectParents && p.sg.N > math.MaxUint32 {
		// Every tree's delegate candidates are uint32 global ids + 1
		// (reduceDelegates).
		return o, fmt.Errorf("core: collecting parents needs fewer than 2^32 vertices, graph has %d", p.sg.N)
	}
	return o, nil
}

// acquire takes a pooled Session and configures it for one query, updating
// the pool counters (a Get that invokes pool.New is a miss; every other is
// a hit).
func (p *Plan) acquire(opts Options) *Session {
	p.poolAcquires.Add(1)
	n := p.inFlight.Add(1)
	for {
		peak := p.peakInFlight.Load()
		if n <= peak || p.peakInFlight.CompareAndSwap(peak, n) {
			break
		}
	}
	s := p.pool.Get().(*Session)
	s.configure(opts)
	return s
}

// release returns a Session to the pool once its query (and any result
// gathering) is complete. A poisoned Session — one whose query aborted on a
// fault, leaving frontiers, posts or mailboxes in an undefined state —
// is dropped instead of recycled, so the next acquire allocates fresh (an
// observable pool miss) and no later query can inherit corrupt state.
func (p *Plan) release(s *Session) {
	p.inFlight.Add(-1)
	if s.poisoned {
		return
	}
	p.pool.Put(s)
}

// planEnv is the immutable execution environment shared by every query
// session type (single-query Session, multi-source sweepSession): the
// partitioned graph, cluster shape and derived sizes. Embedding it lets the
// canonical parent resolution and gather code run identically on both.
type planEnv struct {
	sg    *partition.Subgraphs
	shape ClusterShape
	cfg   partition.Config
	p     int
	d     int64
	epoch uint64
	homes *delegateHomes
}

// env snapshots the plan's immutable execution environment.
func (p *Plan) env() planEnv {
	return planEnv{sg: p.sg, shape: p.shape, cfg: p.cfg, p: p.p, d: p.d, epoch: p.epoch, homes: &p.homes}
}

// delegateHomes lists, per GPU, the local slots whose vertex is a delegate:
// the normal slots a repair's preload fills from the prior's levels and must
// then clear (repairPreload). Only repairs read it, so a plan builds it on its
// first one.
type delegateHomes struct {
	once  sync.Once
	slots [][]uint32
}

// get returns the home slots of sg's delegates, GPU by GPU in ascending
// order, building them on the first call.
func (h *delegateHomes) get(sg *partition.Subgraphs) [][]uint32 {
	h.once.Do(func() {
		cfg := sg.Cfg
		h.slots = make([][]uint32, cfg.P())
		for _, v := range sg.Sep.DelegateGlobal {
			g := cfg.OwnerGPU(v)
			h.slots[g] = append(h.slots[g], cfg.LocalID(v))
		}
	})
	return h.slots
}

// runEnv is what the superstep loop (run.go) and the modelled clock
// (timing.go, policy.go) need of a traversal, whatever its lanes carry: the
// plan's environment, the query's effective options, its statistics and its
// exchange policy. Session and sweepSession each embed one, so every charge
// and every timing rule exists once.
type runEnv struct {
	planEnv
	opts Options
	amp  float64 // work/volume amplification for the timing model
	// rec is the in-flight query's statistics and loop its superstep state
	// between phases, both written by the driver's folds and closers only;
	// pol is its exchange policy, read-only during the traversal. All three
	// are set by begin before the ranks start.
	rec  recorder
	loop loopState
	pol  *exchangePolicy
	// drv runs the traversal's phases over its ranks and bsp is the
	// superstep loop's stepper; both keep their buffers across queries.
	drv driver
	bsp bspLoop
}

// runOn binds a plan's environment to one query's effective options.
func (p *Plan) runOn(opts Options) runEnv {
	return runEnv{planEnv: p.env(), opts: opts, amp: opts.WorkAmplification}
}

// begin clears the statistics and the loop state and builds the policy of a
// new query.
func (e *runEnv) begin() {
	e.rec = recorder{}
	e.rec.Exchange.Strategy = e.opts.Exchange.String()
	e.loop = loopState{fb: newPolicyFeedback(), sync: e.syncOverhead()}
	e.pol = e.newExchangePolicy()
}

// cancelErr is the error of a query whose ranks left the loop on a dead
// context (rec.cancelled), nil for one that ran to its end.
func (e *runEnv) cancelErr(ctx context.Context) error {
	if !e.rec.cancelled {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// Session holds every mutable byte of one in-flight BFS query: per-GPU
// frontiers, visited bitmasks, send bins, parent-resolution scratch and the
// effective (base + overrides) options. Sessions are created and recycled by
// their Plan's pool; they are never shared between concurrent queries, so a
// Session needs no locking of its own — its per-GPU state is touched only by
// the owning rank's share of a phase, exactly as on the real machine.
type Session struct {
	runEnv
	gpus []*gpuState
	// scratch holds each rank's reusable per-iteration state (merge
	// headers, arrival bins, decode arena, radix buffers — see scratch.go).
	// Indexed by rank; touched only by the owning rank's work.
	scratch []*rankScratch

	// childKnown reports that the GPUs' hasChild bits describe this query's
	// levels: reset sets it for a traversal from nothing, resetTraversal clears
	// it for a repair wave, whose levels are preloaded, not traversed — the
	// bits its kernels set (on top of the last cold run's) cover only what it
	// re-levelled. While it is clear the replay offers from every visited
	// vertex (tests clear it on a cold run to diff the two replays).
	childKnown bool

	// out is the in-flight query's global result arrays, allocated by the
	// caller goroutine before the ranks start and filled by them
	// (parents.go); source is its source, which its finisher roots the tree
	// at.
	out    treeOut
	source int64
	// parentExchangePairs counts the post-BFS resolution traffic (pairs),
	// reported but excluded from simulated BFS time. The byte counters
	// account that exchange's fixed-width equivalent and what the codec
	// actually put on the wire. All three are updated atomically by the
	// ranks' shares of a fanned-out phase.
	parentExchangePairs int64
	parentPairRawBytes  int64
	parentPairWireBytes int64

	// loops are the ranks' sides of the superstep loop (bindWave), and probe
	// a repair prologue's stepper.
	loops []rankLoop
	probe repairPrologue

	// world is the session's pooled communicator, reset per query — a
	// completed query leaves it empty (every message received), so reuse
	// replaces per-query construction.
	world *mpi.World

	// poisoned marks a session whose query aborted on a fault: its state is
	// undefined, so release drops it instead of recycling it.
	poisoned bool
}

// acquireWorld returns the session's communicator, reset for a new query
// (allocated on first use, recycled with the pooled session afterwards).
// traverse arms it with the query's injector.
func (e *Session) acquireWorld() *mpi.World {
	if e.world == nil {
		e.world = mpi.NewWorld(e.shape.Ranks())
	} else {
		e.world.Reset()
	}
	return e.world
}

// newSession allocates the per-GPU state for one concurrent query.
func (p *Plan) newSession() *Session {
	s := &Session{runEnv: p.runOn(p.base)}
	prank := p.shape.Ranks()
	s.scratch = make([]*rankScratch, prank)
	for r := range s.scratch {
		s.scratch[r] = newRankScratch(prank, p.shape.GPUsPerRank, s.d)
	}
	s.gpus = make([]*gpuState, s.p)
	for i, pg := range p.sg.GPUs {
		gs := &gpuState{
			pg:         pg,
			dt:         &s.scratch[pg.Rank].dt,
			levels:     make([]int32, pg.NumLocal),
			hasChild:   bitmask.New(pg.NumLocal),
			newMask:    bitmask.New(s.d),
			bins:       frontier.NewBins(s.p),
			isNDSource: make([]bool, pg.NumLocal),
		}
		for _, src := range pg.NDSources {
			gs.isNDSource[src] = true
		}
		s.gpus[i] = gs
	}
	return s
}

// configure applies one query's effective options to a pooled session. The
// BFS-tree buffers are allocated lazily the first time a query collects
// parents and kept for later reuses of the session.
func (s *Session) configure(opts Options) {
	s.opts = opts
	s.amp = opts.WorkAmplification
	s.poisoned = false
	for _, gs := range s.gpus {
		if opts.CollectParents && gs.parents == nil {
			gs.parents = make([]uint32, gs.pg.NumLocal)
		}
	}
}

// charge prices a kernel on the GPU model with work amplification applied
// (timing only; functional counters stay raw).
func (e *runEnv) charge(c simgpu.KernelCost) float64 {
	c.Edges = int64(float64(c.Edges) * e.amp)
	c.Vertices = int64(float64(c.Vertices) * e.amp)
	return e.opts.GPU.Time(c)
}

// ampBytes scales a communication volume for the timing model.
func (e *runEnv) ampBytes(b int64) int64 {
	return int64(float64(b) * e.amp)
}

// gpuState is the per-GPU mutable run state. Each GPU's state is touched
// only by its owning rank's work. Its normal vertices are its own; the
// delegate tier is the rank's (dt), one replica its GPUs share, as a sweep's
// share sweepScratch's, and the replicas of the ranks agree because they
// change only by the reduced proposal (§V-A).
type gpuState struct {
	pg *partition.GPUGraph
	dt *delegateTier // the rank's, shared by its GPUs

	levels []int32 // local slot → hop distance, -1 unvisited
	// hasChild marks the local slots with an nn neighbor exactly one level
	// down, the only ones whose replay offers can be accepted (parents.go). A
	// cold traversal delivers the bit for nothing: such a neighbor, in its own
	// superstep's frontier, pushes the vertex back over the symmetric edge, and
	// the arrival finds it two levels above the depth it claims (applyIDs,
	// kernelNN). Meaningful only while Session.childKnown: a repair wave runs
	// the same kernels and sets bits too, which its replay ignores, and reset
	// clears them all before the next cold run.
	hasChild *bitmask.Mask

	// The GPU's own proposal, not the rank's: its backward nd kernel skips
	// what its dd kernel proposed this superstep, and no other GPU's.
	newMask  *bitmask.Mask // local delegate discoveries this iteration
	newDirty bool          // newMask has a bit set (propose)
	back     backwardCache // what the backward kernels derive from dt.visited
	quiet    quietKernels  // the last quiescent kernels, for replay
	inFront  []uint32      // local normal frontier
	outFront []uint32
	bins     *frontier.Bins

	// qDDBuf/qDNBuf back the previsit delegate queues across iterations —
	// previsit rebuilds them from scratch each super-step, so only the
	// capacity is reused, never the contents.
	qDDBuf, qDNBuf []int64

	// parents holds the local normal vertices' parent candidates, global id +
	// 1 (0: none), allocated on the first parent-collecting query and read
	// only by one (parents.go).
	parents []uint32

	isNDSource         []bool // local slot has nd edges (member of NDSources)
	unvisitedNDSources int64

	// repSeeds/repCursor are the repair traversal's per-GPU corrective seed
	// schedule: still-valid local vertices as (level, id) keys in ascending
	// order, injected into the frontier when the level-synchronous wave
	// reaches their level (repair.go). reset empties it, so a cold run
	// injects nothing; capacity persists across pooled queries.
	repSeeds  []uint64
	repCursor int
	// rep lists the local vertices whose tree entry a repair must look at
	// again (repair_tree.go): the re-pull set — every vertex the delta
	// invalidated, the wave re-levelled or an inserted edge touches, sorted
	// and deduplicated into rep[:repMembers] when the wave is over — and past
	// it, in any order and with repeats, every vertex a member's row offered
	// a parent. reset empties it.
	rep        []uint32
	repMembers int

	dirDD, dirDN, dirND metrics.Direction

	// Per-iteration work accounting, reset each super-step.
	it iterWork
}

// delegateTier is a rank's replica of the delegate state. visited carries a
// generation (bumped by visitedForWrite, its only write path) and front its
// bit count, so a superstep that changed no delegate never copies, ORs,
// counts or iterates them.
type delegateTier struct {
	level   []int32       // delegate id → hop distance, -1 unvisited
	visited *bitmask.Mask // delegates visited as of iteration start
	visGen  uint64        // generation of visited; never repeats on a tier
	front   *bitmask.Mask // delegate frontier (newly visited last iteration)
	frontN  int64         // set bits in front (frontDelegate, the commit)
	// rec is parentScratch.cand while a cold query that collects parents
	// traverses, nil otherwise (parents.go, step 0): reset sets it,
	// resetTraversal clears it, since a repair wave's kernels see only what
	// the wave re-levels.
	rec []uint32
}

// visitedForWrite returns the visited mask for mutation and starts a new
// generation of it. Every write to visited goes through here (the per-query
// reset, a delegate source's seed, the superstep's mask commit), so whatever
// is cached against visGen (backwardCache) can never describe a stale mask.
func (dt *delegateTier) visitedForWrite() *bitmask.Mask {
	dt.visGen++
	return dt.visited
}

// frontDelegate puts a delegate into the delegate frontier, keeping its count.
func (dt *delegateTier) frontDelegate(di int64) {
	if !dt.front.Get(di) {
		dt.front.Set(di)
		dt.frontN++
	}
}

// propose records a local delegate discovery for this superstep's reduction.
func (gs *gpuState) propose(di int64) {
	gs.newMask.Set(di)
	gs.newDirty = true
}

// bin queues a discovery owned by another GPU for this superstep's exchange.
// The count is what lets a superstep that binned nothing skip looking at its
// bins (sourceLanes.destinations, post and deliver), so the superstep's
// kernels bin only here.
func (gs *gpuState) bin(owner int, local uint32) {
	gs.bins.Add(owner, local)
	gs.it.binned++
}

// iterWork accumulates one iteration's counted work on one GPU.
type iterWork struct {
	delegateStream float64 // seconds: previsit + dd + nd kernels
	normalStream   float64 // seconds: previsit + dn + nn kernels + binning
	edgesScanned   int64
	binned         int64 // ids queued for other GPUs (gpuState.bin)
}

// reset prepares all per-GPU state for a fresh run: resetTraversal on the
// driver's goroutine, then the O(n) arrays as a driven phase (phaseReset), one
// rank's GPUs per step, fanned out from fanReset vertices. The driver is bound
// to the query's World (traverse).
func (e *Session) reset() {
	e.resetTraversal()
	e.childKnown = true
	d := &e.drv
	d.fan = e.sg.N >= fanReset
	if err := d.run(e, phaseReset); err != nil {
		panic(err) // nothing in a reset decodes or injects
	}
}

// resetRank is rank's share of reset: its GPUs' levels and hasChild bits, their
// parents when the query collects them, and its delegate tier's levels. The
// BFS-tree buffers stay allocated across pooled reuses but are only read by
// parent-collecting queries, so a query that does not collect them skips their
// O(NumLocal) clears.
func (e *Session) resetRank(rank int) {
	for _, gs := range e.rankGPUs(rank) {
		gs.hasChild.Reset()
		for i := range gs.levels {
			gs.levels[i] = -1
		}
		if e.opts.CollectParents {
			clear(gs.parents)
		}
	}
	sc := e.scratch[rank]
	for i := range sc.dt.level {
		sc.dt.level[i] = -1
	}
	if e.opts.CollectParents && e.d > 0 {
		if sc.parents.cand == nil {
			sc.parents.cand = make([]uint32, e.d)
		}
		sc.dt.rec = sc.parents.cand // runWave empties it, on the rank
	}
}

// resetTraversal is reset without the O(n) part: everything but the level and
// parent arrays, which a repair's ranks fill from the prior outcome in the one
// pass they make over them anyway (repairPreload), and the hasChild bits, which
// it marks unknown.
func (e *Session) resetTraversal() {
	e.childKnown = false
	for _, gs := range e.gpus {
		gs.newMask.Reset()
		gs.newDirty = false
		gs.back.liveOK = false
		gs.quiet.kept = false
		gs.inFront = gs.inFront[:0]
		gs.outFront = gs.outFront[:0]
		gs.bins.Reset()
		gs.repSeeds, gs.repCursor, gs.rep = gs.repSeeds[:0], 0, gs.rep[:0]
		gs.unvisitedNDSources = int64(len(gs.pg.NDSources))
		gs.dirDD, gs.dirDN, gs.dirND = metrics.Forward, metrics.Forward, metrics.Forward
		gs.it = iterWork{}
	}
	for _, sc := range e.scratch {
		dt := &sc.dt
		dt.visitedForWrite().Reset()
		dt.front.Reset()
		dt.frontN = 0
		dt.rec = nil
		sc.dSeeds, sc.dCursor = sc.dSeeds[:0], 0
	}
	e.parentExchangePairs = 0
	e.parentPairRawBytes = 0
	e.parentPairWireBytes = 0
}
