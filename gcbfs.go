// Package gcbfs is a Go reproduction of "Scalable Breadth-First Search on a
// GPU Cluster" (Pan, Pearce, Owens — IPDPS workshops 2018, arXiv:1803.03922).
//
// It implements the paper's full system on a simulated GPU cluster:
// degree-separated graph representation (delegates vs normal vertices, §III),
// the Algorithm-1 edge distributor with four per-GPU subgraphs, per-subgraph
// direction-optimized traversal kernels (§IV), and the two-tier
// communication model — global bitmask reduction for delegates plus
// point-to-point exchange for normal vertices (§V).
//
// Runs are functionally exact (hop distances match a serial BFS and pass
// Graph500-style validation) while time is simulated through calibrated
// device and interconnect models, so the paper's scaling behaviour is
// reproducible on any host. The architecture is described in internal/core's
// package comment; `bfsbench -exp <id>` (internal/experiments) regenerates
// each of the paper's tables and figures with the paper's value in its notes,
// and BENCH_*.json track the modelled numbers from PR to PR.
//
// # Query service
//
// The primary API is a persistent, concurrency-safe query service: NewService
// partitions the graph once, and the Service then answers any number of BFS
// queries — sequentially or concurrently — against that shared partition.
// Internally an immutable query plan holds the subgraphs while every query
// runs on a pooled per-query session, so concurrent queries never alias
// mutable state and every result is bit-identical to a serial run.
//
//	g := gcbfs.RMAT(16)
//	svc, err := gcbfs.NewService(g, gcbfs.DefaultConfig(gcbfs.Cluster{
//		Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2,
//	}))
//	if err != nil { ... }
//	ctx := context.Background()
//
//	// One query, with a per-query option override.
//	res, err := svc.Run(ctx, gcbfs.Sources(g, 1, 1)[0],
//		gcbfs.WithCompression(gcbfs.CompressionAdaptive))
//	fmt.Printf("%.1f GTEPS in %d iterations\n", res.GTEPS, res.Iterations)
//
//	// The paper's §VI-A methodology — many random sources — as one batch,
//	// eight queries in flight at a time, results source-ordered.
//	batch, err := svc.RunBatch(ctx, gcbfs.Sources(g, 64, 1),
//		gcbfs.BatchOptions{Parallelism: 8})
//	fmt.Printf("geo-mean %.1f GTEPS over %d runs\n",
//		batch.Stats.GeoMeanGTEPS, batch.Stats.Runs)
//
// Run honors its context at iteration boundaries: a cancelled or expired
// context aborts the query within one BFS iteration and returns ctx.Err().
// Per-query options (WithCompression, WithExchange, WithLevels, WithParents)
// override the construction-time Config for a single query without
// re-partitioning; knobs that change the partition or kernel policies still
// require a new Service.
//
// # Frontier-exchange compression
//
// The Config.Compression knob routes the inter-rank payloads through the
// internal/wire codec. It has two modes. CompressionOff (the default) is the
// paper's fixed-width packing: checksummed raw blocks, charged as the paper
// charges them — 4 bytes per id, no framing, no codec kernel.
// CompressionAdaptive writes every block in its smallest scheme by exact
// size, from that block alone (checksummed, with a 1-byte scheme header):
// each slot's ids as a raw uint32 list, a sorted varint delta stream or a
// dense bitmap; each sweep record's lane sets raw or as sparse bit
// positions; each parent-resolution (id, value) pairs block raw or
// bit-packed.
// Compression never changes levels or parents — only bytes on the wire, the
// simulated remote-normal communication time, and the codec pack/unpack
// compute now charged through the device model (Result.CodecSeconds).
//
// # Exchange policies: butterfly and hybrid
//
// The Config.Exchange knob replaces the all-pairs normal-vertex exchange
// (p−1 messages per rank per iteration) with a hypercube butterfly: each
// hop exchanges one aggregated message with partner rank XOR 2^k,
// forwarding everything destined for the partner's half. Message count
// drops from quadratic to about p·log2(p) and per-message size grows into
// the network's high-efficiency regime, at the cost of relayed volume
// (ButterFly BFS, Green 2021). Any rank count works: non-power-of-two
// counts fold their remainder ranks into the nearest power-of-two
// hypercube with a Bruck-style pre/post cleanup hop pair. The codec
// re-encodes per hop, so adaptive compression sees the aggregated blocks —
// and pays the log(p)× codec compute the timing model charges.
//
// ExchangeHybrid picks between the two per BFS iteration, the way
// direction optimization picks push vs pull: the butterfly wins
// message-count-bound iterations (tiny frontiers, many ranks) while
// all-pairs wins bandwidth-bound ones (the butterfly relays ~log2(p)/2×
// the volume), and a cost model over the simulated link parameters takes
// the cheaper side each iteration from the globally known frontier volume.
// Result.AllPairsIterations/ButterflyIterations report the split. Results
// are bit-identical across all three policies — and across any
// per-iteration mix — only message pattern and simulated time change.
//
// # Pipelined hops
//
// The butterfly's hops are software-pipelined: hop k's transfer runs
// concurrently with hop k−1's decode/merge/re-encode compute, so each
// pipeline step costs max(wire, codec) instead of their sum — the paper's
// §VI-B compute/communication overlap applied inside the exchange, which
// reclaims most of the log(p)× codec work the per-hop re-encode costs.
// Result.HiddenCodecSeconds reports the codec time hidden under transfers
// and Result.PipelineStalls the steps where compute outlasted the wire;
// per-iteration Result breakdowns carry the exposed remainder inside
// RemoteNormal. The hybrid policy prices the overlap into its butterfly
// cost estimate. Two measured feedback signals tighten its decisions per
// query: a skew ratio (the max-reduced per-rank volume over the mean,
// pricing partition skew) and a per-strategy calibration EWMA of
// predicted-vs-actual exchange time (Result.CalibrationAllPairs /
// CalibrationButterfly). Overlap hides time, it never reorders the
// traversal.
//
// # Hierarchical exchange
//
// On clusters with more than one GPU per rank, the exchange is two-level:
// the GPUs of a rank first combine their per-destination bins over
// simulated NVLink into one merged message per destination rank — the
// paper's §V-B packed sends with its intra-rank staging (the L option) in
// front — then the inter-rank topology (all-pairs or butterfly) ships the
// aggregates, so a rank sends p_rank−1 messages per all-pairs round
// whatever its GPU count. Under the butterfly the intra-rank NVLink staging
// is a third pipeline resource next to the wire and the codec: each step
// costs max(wire, codec, nvlink), so most NVLink time hides under hop
// transfers (Result.NVLinkSeconds / HiddenNVLinkSeconds report the split).
// The exposed remainder is charged to the LocalComm breakdown component,
// where intra-rank staging time lives, never RemoteNormal, which stays the
// wire+codec schedule and therefore comparable across GPU counts. The
// delegate-mask allreduce is chunked across the hop steps whenever folding
// it under the butterfly's wire is cheaper than the standalone reduction.
// The hybrid policy prices the NVLink stages into both strategy estimates,
// so its crossover tracks the hierarchy. A multi-source sweep's records ride
// the same two-level exchange under the same rules.
//
// # Multi-source sweeps
//
// Service.RunSweep answers K BFS queries in ONE shared BSP traversal
// (MS-BFS): per-vertex visited state widens to a K-bit query mask, frontier
// records carry (vertex, query-set) payloads — every id with its K-bit lane
// set beside it — and the delegate tier reduces a d×K mask matrix. A vertex
// expanded for many queries scans its adjacency once, and records bound for
// the same vertex merge into one wire record with OR-ed masks — where a rank
// stages them, and again at every butterfly relay — so traversal work and
// wire volume amortize across the batch while every query's levels and
// parents stay bit-identical to an independent Run. The records ride the
// exchange Config.Exchange (or WithExchange) selects, all-pairs, butterfly or
// hybrid, as a Run's ids do; the butterfly aggregates exactly what many
// traversals sharing a hop put on the wire (Green 2021). Sources are deduplicated at
// admission (duplicate requests share one traversal lane and receive their
// own result copies), batches wider than Config.SweepWidth (default 64,
// bounded by core's 1024) split into successive sweeps, and the per-query
// Result reports the sweep totals divided evenly across its queries — the
// amortized per-query rate the cmp5 ablation compares against independent
// RunBatch.
//
// Config.CoalesceQueries additionally routes plain Run calls (those without
// per-query options) through a sweep admission queue: concurrent callers are
// batched into sweeps of at most SweepWidth, with requests arriving during
// an in-flight sweep coalescing into the next one. Coalesced sweeps run on a
// background context — a caller's cancellation abandons its wait but never
// aborts the shared traversal.
//
// # What the BFS tree costs
//
// Config.CollectParents (per-query WithParents) returns the Graph500
// predecessor array as the canonical min-id tree: every vertex's parent is
// its smallest neighbor one level closer to the source — a pure function of
// the hop distances, which is why Run, RunSweep and Repair return
// bit-identical trees. On the paper's clock the tree is free: its single
// exchange replays nn edges only (§VI-A3) — in a Run, only those of the
// vertices the traversal itself saw pushed back by a neighbor one level down,
// whose offers are the only ones a child can accept: about half the pairs on
// RMAT — is reported in Result.ParentPairs and the pair byte counters, and is
// excluded from simulated BFS time. On the host clock it is a post-BFS pass
// that is direction-optimised like the traversal itself: per BFS level the
// delegate tier either looks up from the child rows or down from the parent
// rows, whichever side holds fewer edges, so it reads a tenth to a third of
// the dd edges instead of all of them, and the ranks then write the result
// arrays between them, each one contiguous range of vertex ids. At RMAT scale
// 18 on 2×2×2 a query with levels and parents takes about two and a half
// times the host time of the traversal alone (28 ms against 11 ms on the
// reference host; it was three to four times before the resolution learned
// directions); leave parents off, the default, when distances are all you
// need.
//
// A sweep resolves the trees of all its lanes in one pass, not lane by lane:
// its traversal leaves behind which lanes first reached which vertex at which
// level, and from that a tree edge is found for 64 lanes with one word
// operation. On the host benchmark's sweep workload (RMAT scale 16 on 4×2×2,
// 64 sources, levels and parents) an answer cost 1.2–1.4 serial BFSs while
// the sweep ran the single-tree pass 64 times — two thirds of the call — and
// costs 0.4–0.45 now, so a sweep is, on the host clock too, the cheapest way
// to ask many questions of one graph.
//
// A Repair does not resolve its tree again at all where it can help it: the
// result starts as a copy of the prior result's arrays, and only the vertices
// the delta could have re-parented — the ones it invalidated, the ones the
// corrective wave re-levelled, the endpoints of its inserts — look for their
// smallest parent again, offering themselves to their neighbors as they do.
// That is exact, not approximate (any other vertex's candidates changed only
// by those vertices arriving at or leaving the level above it), and small: on
// the host benchmark's mutable workload (RMAT scale 16 on 4×2×2, 0.1 % mixed
// deltas) a repair changes ~200 levels and ~300 parents of 65 536, re-reads
// 1.5 % of the edges where the full resolution reads a quarter of them, and
// the tree went from three fifths of a Repair call to under a third. When the delta
// is large enough that re-reading those rows would cost more than resolving
// everything, Repair resolves everything; the answer is the same either way,
// and Result.ParentPairs says which happened.
//
// # Incremental graphs
//
// NewMutableService wraps the service in an epoch chain for mutating
// graphs: ApplyDelta takes one atomic batch of undirected edge inserts and
// deletes, builds the next epoch's partition and plan beside the live one —
// reusing the fixed degree threshold, the modular partition assignment, and
// every per-GPU subgraph whose routed edge sequence did not change — and
// publishes it with a single atomic pointer swap. Queries admit themselves
// with one atomic load: a query in flight across a swap (including a
// coalesced sweep draining its queue) finishes entirely on its admission
// epoch, every later call lands on the new one, and Result.Epoch records
// which. MutableService.Repair then advances a held result across the delta
// without re-traversing the unchanged bulk: a corrective traversal through
// the same exchange stack starts where a level can change (the orphaned
// subtrees of deleted tree edges, each vertex at a tentative level its valid
// neighbors give it, and the inserts that shorten a path), and the repaired
// levels and parents are bit-identical to a full recompute on the new epoch
// — typically in a fraction of the simulated time when the delta is small
// (the cmp6 ablation quantifies the crossover). See examples/streaming.
//
// # Fault tolerance
//
// The execution stack is fault-contained: every message a rank receives is
// checksummed (wire.ErrCorrupt typed errors, never panics and never silently
// wrong ids, on any decode failure) — in DefaultConfig as much as with a
// codec on, for Repair's probes and for the PageRank and Components pair
// exchanges as for a BFS — every rank's share of every phase runs behind a
// recover boundary, and a fault on any rank ends the run once that phase has
// run on every rank, within one BSP iteration — the caller always sees an
// error or a complete, validated
// result, never a partial one. Sessions that absorbed a fault are discarded,
// not recycled through the query pool.
//
// Config.Retry layers recovery on top: queries failing with a contained
// fault re-execute up to RetryPolicy.MaxAttempts times with exponential
// backoff, optionally falling back to the all-pairs exchange (the degraded
// execution profile) after DegradeAfter failures.
// Result.Attempts and Result.Degraded report the outcome per query;
// Service.FaultStats aggregates retries, degraded runs, exhausted budgets
// and deadline expiries. A recovered query's levels and parents are
// bit-identical to an undisturbed run.
//
// Config.QueryTimeout (per-query WithDeadline) bounds each query's total
// execution including retries; expiry surfaces as context.DeadlineExceeded
// and is never retried.
//
// Config.Inject arms the deterministic fault injector (internal/faults) that
// the cmp8 chaos ablation drives: corrupt, truncated and dropped messages,
// stalled ranks and mid-iteration rank crashes, keyed by (rank, iteration,
// site) so every failure replays exactly. Unarmed (the default), every fault
// decision point reduces to a nil check and results, wire bytes and timing
// are identical to a build without the machinery.
//
// # Benchmark trajectory
//
// Performance claims are trended, not narrated: every PR regenerates a
// pinned benchmark report at the repo root via
//
//	go run ./cmd/bfsbench -json BENCH_<pr>.json -quick
//
// and CHANGES.md cites the diff against the previous baseline
// (bfsbench -diff new.json -baseline old.json). The suite (internal/bench)
// records GTEPS, exact wire bytes, hidden-codec ratio, policy error, and
// allocs/bytes per query under fixed seeds; CI's bench-trajectory job diffs
// a fresh run against the latest committed BENCH_*.json with per-metric
// tolerances (GTEPS −5%, allocs/query +10%, wire bytes exact) and fails the
// build on regression. See examples/tuning for how to read the cells.
package gcbfs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gcbfs/internal/baseline"
	"gcbfs/internal/core"
	"gcbfs/internal/faults"
	"gcbfs/internal/g500"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// Graph is a symmetric (edge-doubled) graph over vertices [0, NumVertices).
type Graph struct {
	el *graph.EdgeList
}

// NewGraph returns an empty graph over n vertices.
func NewGraph(n int64) *Graph {
	return &Graph{el: graph.NewEdgeList(n)}
}

// AddUndirectedEdge inserts both directions of the edge {u, v}, keeping the
// graph symmetric as the system requires (§II-A).
func (g *Graph) AddUndirectedEdge(u, v int64) {
	g.el.Add(u, v)
	g.el.Add(v, u)
}

// RMAT generates the Graph500 RMAT graph the paper evaluates on: edge
// factor 16, A,B,C,D = 0.57/0.19/0.19/0.05, vertex numbers randomized by a
// deterministic hash, symmetric by edge doubling.
func RMAT(scale int) *Graph {
	return &Graph{el: rmat.Generate(rmat.DefaultParams(scale))}
}

// RMATWithSeed is RMAT with a custom generator seed.
func RMATWithSeed(scale int, seed uint64) *Graph {
	p := rmat.DefaultParams(scale)
	p.Seed = seed
	return &Graph{el: rmat.Generate(p)}
}

// SocialNetwork generates the Friendster-like synthetic social graph used by
// the §VI-D experiments: a scale-free core with about half the vertices
// isolated.
func SocialNetwork(coreScale int) *Graph {
	return &Graph{el: gen.SocialNetwork(gen.DefaultSocialParams(coreScale))}
}

// WebGraph generates the WDC-like long-tail web graph of §VI-D: a scale-free
// core plus long chains that push BFS to hundreds of iterations.
func WebGraph(coreScale int) *Graph {
	return &Graph{el: gen.WebGraph(gen.DefaultWebParams(coreScale))}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int64 { return g.el.N }

// NumEdges returns the directed edge count (twice the undirected count).
func (g *Graph) NumEdges() int64 { return g.el.M() }

// OutDegrees returns the out-degree of every vertex.
func (g *Graph) OutDegrees() []int64 { return g.el.OutDegrees() }

// Validate checks edge endpoints are in range.
func (g *Graph) Validate() error { return g.el.Validate() }

// Cluster is the paper's hardware notation: nodes × MPI ranks per node ×
// GPUs per rank.
type Cluster struct {
	Nodes        int
	RanksPerNode int
	GPUsPerRank  int
}

// GPUs returns the total simulated GPU count.
func (c Cluster) GPUs() int { return c.Nodes * c.RanksPerNode * c.GPUsPerRank }

func (c Cluster) shape() core.ClusterShape {
	return core.ClusterShape{Nodes: c.Nodes, RanksPerNode: c.RanksPerNode, GPUsPerRank: c.GPUsPerRank}
}

// Config selects the cluster layout and the paper's tuning options (§VI-B).
type Config struct {
	Cluster Cluster
	// Threshold is the degree-separation threshold TH; 0 selects it
	// automatically with the paper's d ≤ 4n/p rule.
	Threshold int64
	// DirectionOptimized enables DOBFS (per-subgraph direction switching).
	// A MutableService's repairs run forward whatever it says.
	DirectionOptimized bool
	// LocalAll2All enables the intra-rank staging optimization (L).
	LocalAll2All bool
	// Uniquify removes duplicate destinations from send bins (U): each GPU
	// sorts and compacts every bin before the exchange, a kernel of its own on
	// the modelled clock. It is the paper's ablation and matters where the
	// paper ran it, with Compression off: there the exchange ships what the
	// kernels binned, repeats and all, and U is the only thing that drops
	// them. With a codec active the exchange carries sets whatever U says —
	// the codec's staging sort puts the repeats side by side and they are
	// dropped there, at every butterfly relay and on arrival — so U only
	// moves where a duplicate is dropped: the bytes on the wire are identical
	// with it on or off, and its kernel is pure cost.
	Uniquify bool
	// BlockingReduce selects MPI_Allreduce (BR) over MPI_Iallreduce (IR)
	// for delegate masks.
	BlockingReduce bool
	// WorkAmplification scales the timing model into a larger-graph
	// regime (see the scale mapping in internal/experiments' package
	// comment); values ≤ 0 are treated as 1
	// (no amplification).
	WorkAmplification float64
	// CollectLevels gathers hop distances into results. Overridable per
	// query with WithLevels.
	CollectLevels bool
	// CollectParents additionally gathers the Graph500 BFS tree into
	// results. Overridable per query with WithParents. A query that collects
	// the tree needs a graph of fewer than 2^32 vertices and is refused
	// otherwise.
	CollectParents bool
	// Compression selects the frontier-exchange codec for inter-rank
	// normal-vertex payloads (see the package comment). The zero value is
	// CompressionOff. Overridable per query with WithCompression.
	Compression Compression
	// Exchange selects the inter-rank exchange policy for normal vertices:
	// ExchangeAllPairs (the zero value) sends one message per destination
	// rank per iteration, ExchangeButterfly runs hypercube hops that
	// aggregate payloads into fewer, larger messages (any rank count —
	// non-powers-of-two add a cleanup hop pair), and ExchangeHybrid picks
	// between the two per iteration from the known frontier volume. It
	// applies to RunSweep and coalesced Run calls as to Run: a sweep's
	// records ride the same exchange. Traversal results are identical under
	// every policy. Overridable per query with WithExchange.
	Exchange Exchange
	// SweepWidth caps how many queries one multi-source sweep carries
	// (RunSweep batches and CoalesceQueries admission both split wider
	// batches into successive sweeps). 0 selects DefaultSweepWidth; the hard
	// ceiling is core's MaxSweepWidth (1024).
	SweepWidth int
	// CoalesceQueries routes option-free Run calls through the sweep
	// admission queue, batching concurrent callers into shared sweeps (see
	// the package comment's multi-source section). Runs with per-query
	// options bypass coalescing — option sets cannot share a traversal.
	CoalesceQueries bool
	// Inject arms deterministic fault injection for chaos testing (see the
	// package comment's fault-tolerance section): payload faults fire on the
	// simulated wire, boundary faults at BSP iteration boundaries, keyed by
	// (rank, iteration, site) so every failure replays exactly. nil — the
	// default — keeps every decision point on the fault-free fast path.
	Inject *faults.Injector
	// Retry re-executes queries that fail with a contained fault (a
	// wire.ErrCorrupt or faults.ErrInjected chain). The zero value disables
	// retries: one attempt per query, faults surface as typed errors.
	Retry RetryPolicy
	// QueryTimeout bounds every query's total execution (all retry attempts
	// included) with context.WithTimeout; expiry surfaces as
	// context.DeadlineExceeded and is never retried. 0 means no bound.
	// Overridable per query with WithDeadline.
	QueryTimeout time.Duration
}

// RetryPolicy bounds how the Service re-executes queries that fail with a
// contained fault. Only fault-typed errors are retried — context
// cancellation, configuration errors and genuine bugs are always final. The
// zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total execution budget per query, first attempt
	// included; values ≤ 1 mean no retries.
	MaxAttempts int
	// Backoff is the wait before the first retry, doubling on each
	// subsequent one (0: retry immediately).
	Backoff time.Duration
	// AttemptTimeout bounds each individual attempt; an expired attempt is
	// retried like a contained fault as long as the query-level deadline
	// (Config.QueryTimeout / WithDeadline) has not passed. 0: no
	// per-attempt bound.
	AttemptTimeout time.Duration
	// DegradeAfter switches retries to the degraded execution profile — the
	// all-pairs exchange, whatever policy the query or sweep asked for — once
	// this many attempts have failed (0: never degrade). The degraded profile
	// trades simulated speed for the simplest communication pattern, one
	// round with no relays, maximizing the chance a transient exchange fault
	// does not recur; levels and parents stay bit-identical to the fast path.
	DegradeAfter int
}

// attempts returns the normalized per-query attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// DefaultSweepWidth is the sweep width used when Config.SweepWidth is 0.
const DefaultSweepWidth = 64

// sweepWidth normalizes the configured sweep width.
func (cfg Config) sweepWidth() int {
	w := cfg.SweepWidth
	if w <= 0 {
		w = DefaultSweepWidth
	}
	if w > core.MaxSweepWidth {
		w = core.MaxSweepWidth
	}
	return w
}

// Compression selects how inter-rank frontier payloads are encoded.
type Compression int

const (
	// CompressionOff is the fixed-width packing the paper assumes: raw
	// checksummed blocks, charged 4 bytes per id with no codec compute.
	CompressionOff Compression = iota
	// CompressionAdaptive picks the smallest of the raw, delta and bitmap
	// schemes for every block, from that block alone.
	CompressionAdaptive
)

// Exchange selects the inter-rank normal-vertex exchange topology.
type Exchange int

const (
	// ExchangeAllPairs sends one message per destination rank per
	// iteration — the paper's §V-B pattern.
	ExchangeAllPairs Exchange = iota
	// ExchangeButterfly runs hypercube hops that aggregate payloads into
	// fewer, larger messages (ButterFly BFS, Green 2021); non-power-of-two
	// rank counts fold their remainder into the nearest power-of-two
	// hypercube with a pre/post cleanup hop pair.
	ExchangeButterfly
	// ExchangeHybrid picks all-pairs or butterfly per BFS iteration from
	// the globally known frontier volume through a cost model over the
	// simulated link parameters.
	ExchangeHybrid
)

func (x Exchange) strategy() core.Exchange {
	switch x {
	case ExchangeButterfly:
		return core.ExchangeButterfly
	case ExchangeHybrid:
		return core.ExchangeHybrid
	}
	return core.ExchangeAllPairs
}

func (c Compression) mode() wire.Mode {
	if c == CompressionAdaptive {
		return wire.ModeAdaptive
	}
	return wire.ModeOff
}

// DefaultConfig returns the paper's tuned DOBFS configuration for a cluster.
func DefaultConfig(c Cluster) Config {
	return Config{
		Cluster:            c,
		DirectionOptimized: true,
		BlockingReduce:     true,
		CollectLevels:      true,
	}
}

func (cfg Config) engineOptions() core.Options {
	o := core.DefaultOptions()
	o.DirectionOptimized = cfg.DirectionOptimized
	o.LocalAll2All = cfg.LocalAll2All
	o.Uniquify = cfg.Uniquify
	o.BlockingReduce = cfg.BlockingReduce
	o.WorkAmplification = cfg.WorkAmplification
	o.CollectLevels = cfg.CollectLevels
	o.CollectParents = cfg.CollectParents
	o.Compression = cfg.Compression.mode()
	o.Exchange = cfg.Exchange.strategy()
	o.Inject = cfg.Inject
	return o
}

// Result reports one BFS run.
type Result struct {
	Source     int64
	Iterations int
	// Epoch identifies the graph snapshot the query was admitted to: a
	// MutableService stamps every result with the epoch whose plan answered
	// it (queries in flight across an ApplyDelta finish on their admission
	// epoch). Fixed-graph Services report 0.
	Epoch uint64
	// SimSeconds is modeled cluster time; GTEPS uses the Graph500 m/2
	// convention (§VI-A3).
	SimSeconds float64
	GTEPS      float64
	// Levels holds hop distances per vertex (-1 unreachable); nil when
	// levels were not collected.
	Levels []int32
	// Parents holds the Graph500 BFS-tree parent per vertex (-1
	// unreachable); nil unless the query collected parents (Config or
	// WithParents).
	Parents []int64
	// EdgesScanned counts actual traversal work (forward scans plus
	// backward parent checks).
	EdgesScanned int64
	// Breakdown components in seconds (Fig. 8/10's four parts).
	Computation, LocalComm, RemoteNormal, RemoteDelegate float64
	// WireBytes is the inter-rank normal-exchange volume actually sent;
	// WireRawBytes is its fixed-width (4 bytes/id) equivalent. The two are
	// equal when Compression is off.
	WireBytes, WireRawBytes int64
	// CodecSeconds is the simulated compute time the codec's pack/unpack
	// kernels cost this query (included in RemoteNormal); zero with
	// compression off.
	CodecSeconds float64
	// Messages counts inter-rank point-to-point messages across all ranks
	// and iterations; ForwardedBytes is the fixed-width equivalent of ids
	// the butterfly relayed through intermediate ranks (zero for
	// all-pairs); MaxMessageBytes is the largest message the timing model
	// saw.
	Messages, ForwardedBytes, MaxMessageBytes int64
	// MaskRawBytes/MaskWireBytes account the delegate-mask reductions when
	// compression is on: the native bitmap size vs what the allreduce
	// shipped after the adaptive encoding (sparse late-iteration masks
	// shrink). Zero with compression off.
	MaskRawBytes, MaskWireBytes int64
	// Exchange is the configured exchange policy ("allpairs", "butterfly"
	// or "hybrid"); AllPairsIterations and ButterflyIterations report how
	// many BFS iterations ran under each strategy (the hybrid policy may
	// split them, fixed policies put every iteration on one side).
	Exchange                                string
	AllPairsIterations, ButterflyIterations int64
	// PredictedRemoteSeconds is the exchange policy cost model's summed
	// per-iteration prediction of remote-normal time — comparable against
	// RemoteNormal to judge the model.
	PredictedRemoteSeconds float64
	// HiddenCodecSeconds is the codec compute the pipelined butterfly hid
	// under concurrent hop transfers (never more than CodecSeconds — the
	// pipeline hides time, it cannot create it); PipelineStalls counts
	// pipeline steps where the codec stage outlasted the transfer it
	// overlapped. Both zero for all-pairs iterations.
	HiddenCodecSeconds float64
	PipelineStalls     int64
	// NVLinkSeconds is the simulated intra-rank NVLink time the hierarchical
	// exchange spent combining per-GPU bins and staging merged payloads;
	// HiddenNVLinkSeconds is the share of it the pipelined butterfly hid
	// under concurrent hop transfers and codec stages (never more than
	// NVLinkSeconds). The exposed remainder lands in the LocalComm
	// breakdown component, never RemoteNormal. Both zero on single-GPU
	// ranks.
	NVLinkSeconds, HiddenNVLinkSeconds float64
	// CalibrationAllPairs/CalibrationButterfly are the query's final
	// predicted-vs-actual calibration factors per strategy (1 ≈ the cost
	// model tracked the simulated network exactly; 0 = the strategy never
	// ran this query).
	CalibrationAllPairs, CalibrationButterfly float64
	// Attempts is how many executions the retry policy spent on this query
	// (1 on the fault-free fast path); Degraded reports whether the
	// successful attempt ran the degraded profile (all-pairs exchange).
	// Batch-level calls retry the batch as a unit, so every result of one
	// call reports the same pair.
	Attempts int
	Degraded bool
}

// Service is a persistent, concurrency-safe BFS query service: the graph is
// partitioned once at construction, and any number of queries — sequential
// or concurrent — then run against the shared immutable plan, each on its
// own pooled session. A Service is safe for use from multiple goroutines.
type Service struct {
	g    *Graph
	cfg  Config
	plan *core.Plan
	sub  *partition.Subgraphs

	// deltaFP fingerprints the Delta whose ApplyDelta produced this epoch
	// (0 for epochs built from scratch). Repair checks it so a mismatched
	// delta is rejected instead of silently seeding the corrective
	// traversal from the wrong affected set.
	deltaFP uint64

	// Sweep admission queue (CoalesceQueries): pending requests plus the
	// flag marking a drain loop in flight. Requests that arrive while a
	// sweep runs coalesce into the next one.
	admitMu  sync.Mutex
	pendingQ []*sweepReq
	draining bool

	// Fault-tolerance counters (FaultStats accessor).
	faultMu    sync.Mutex
	faultStats metrics.FaultStats
}

// validate checks the construction-time knobs shared by NewService and
// NewMutableService.
func (cfg Config) validate() error {
	if err := cfg.Cluster.shape().Validate(); err != nil {
		return err
	}
	if cfg.Compression < CompressionOff || cfg.Compression > CompressionAdaptive {
		return fmt.Errorf("gcbfs: invalid compression mode %d", cfg.Compression)
	}
	if cfg.Exchange < ExchangeAllPairs || cfg.Exchange > ExchangeHybrid {
		return fmt.Errorf("gcbfs: invalid exchange strategy %d", cfg.Exchange)
	}
	if cfg.SweepWidth < 0 || cfg.SweepWidth > core.MaxSweepWidth {
		return fmt.Errorf("gcbfs: sweep width %d out of range [0,%d]", cfg.SweepWidth, core.MaxSweepWidth)
	}
	return nil
}

// threshold resolves the degree-separation threshold for a graph with the
// given out-degrees: the configured value, or the paper's d ≤ 4n/p rule when
// unset.
func (cfg Config) threshold(deg []int64) int64 {
	if cfg.Threshold > 0 {
		return cfg.Threshold
	}
	return partition.SuggestThreshold(deg, 4*int64(len(deg))/int64(cfg.Cluster.shape().P()))
}

// separate checks the graph's edges and splits its vertices at cfg's
// threshold over one count of the out-degrees: the range check, the threshold
// rule and the separation each used to walk the edge list for themselves.
func (cfg Config) separate(g *Graph) (*partition.Separation, error) {
	deg, err := g.el.CheckedOutDegrees()
	if err != nil {
		return nil, err
	}
	return partition.SeparateDegrees(deg, cfg.threshold(deg)), nil
}

// NewService partitions the graph (degree separation + Algorithm 1) for the
// configured cluster and prepares the query plan. An edge with an endpoint
// outside [0, n) is an error.
func NewService(g *Graph, cfg Config) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sep, err := cfg.separate(g)
	if err != nil {
		return nil, err
	}
	svc, _, err := newEpochService(g, cfg, sep, 0, nil)
	return svc, err
}

// newEpochService builds one epoch's immutable Service from the graph and its
// separation: distribution (incrementally against prev when given, so
// untouched per-GPU subgraphs are shared byte-identically) and a plan stamped
// with the epoch. shared reports how many GPU subgraphs were reused.
func newEpochService(g *Graph, cfg Config, sep *partition.Separation, epoch uint64, prev *partition.Subgraphs) (svc *Service, shared int, err error) {
	shape := cfg.Cluster.shape()
	var sub *partition.Subgraphs
	if prev == nil {
		sub, err = partition.Distribute(g.el, sep, shape.PartitionConfig())
	} else {
		sub, shared, err = partition.DistributeIncremental(g.el, sep, shape.PartitionConfig(), prev)
	}
	if err != nil {
		return nil, 0, err
	}
	plan, err := core.NewPlanEpoch(sub, shape, cfg.engineOptions(), epoch)
	if err != nil {
		return nil, 0, err
	}
	return &Service{g: g, cfg: cfg, plan: plan, sub: sub}, shared, nil
}

// QueryOption overrides one knob of the service's Config for a single query,
// without re-partitioning the graph.
type QueryOption func(*queryConfig)

type queryConfig struct {
	ov      core.Overrides
	timeout *time.Duration
	err     error
}

// deadline resolves the query-level time bound: the per-query override when
// set, the service default otherwise (0: unbounded).
func (q *queryConfig) deadline(def time.Duration) time.Duration {
	if q.timeout != nil {
		return *q.timeout
	}
	return def
}

// WithCompression selects the frontier-exchange codec for this query.
func WithCompression(c Compression) QueryOption {
	return func(q *queryConfig) {
		if c < CompressionOff || c > CompressionAdaptive {
			q.err = fmt.Errorf("gcbfs: invalid compression mode %d", c)
			return
		}
		m := c.mode()
		q.ov.Compression = &m
	}
}

// WithExchange selects the exchange policy for this query — a Run, a
// RunBatch or a RunSweep alike: fixed all-pairs, fixed butterfly (any rank
// count), or the per-iteration hybrid.
func WithExchange(x Exchange) QueryOption {
	return func(q *queryConfig) {
		if x < ExchangeAllPairs || x > ExchangeHybrid {
			q.err = fmt.Errorf("gcbfs: invalid exchange strategy %d", x)
			return
		}
		s := x.strategy()
		q.ov.Exchange = &s
	}
}

// WithLevels toggles hop-distance collection for this query.
func WithLevels(on bool) QueryOption {
	return func(q *queryConfig) { q.ov.CollectLevels = &on }
}

// WithParents toggles Graph500 BFS-tree collection for this query.
func WithParents(on bool) QueryOption {
	return func(q *queryConfig) { q.ov.CollectParents = &on }
}

// WithDeadline bounds this query's total execution — every retry attempt
// included — overriding Config.QueryTimeout. Expiry aborts the query within
// one BFS iteration and surfaces as context.DeadlineExceeded, which the
// retry policy never retries. d ≤ 0 removes the service default for this
// query.
func WithDeadline(d time.Duration) QueryOption {
	return func(q *queryConfig) { q.timeout = &d }
}

func buildQuery(opts []QueryOption) (queryConfig, error) {
	var q queryConfig
	for _, o := range opts {
		o(&q)
		if q.err != nil {
			return q, q.err
		}
	}
	return q, nil
}

// retryable reports whether err is a contained fault the retry policy may
// re-execute: a corrupt-payload or injected-fault chain. Context errors,
// configuration errors and genuine bugs are final.
func retryable(err error) bool {
	return errors.Is(err, wire.ErrCorrupt) || errors.Is(err, faults.ErrInjected)
}

// degradedOverrides applies the degraded execution profile on top of the
// query's overrides: the all-pairs exchange — the simplest communication
// pattern the engine has. Levels and parents are bit-identical to the fast
// path; only message pattern and simulated time change.
func degradedOverrides(ov core.Overrides) core.Overrides {
	allPairs := core.ExchangeAllPairs
	ov.Exchange = &allPairs
	return ov
}

// countFault updates the service's fault-tolerance counters under the lock.
func (s *Service) countFault(f func(*metrics.FaultStats)) {
	s.faultMu.Lock()
	f(&s.faultStats)
	s.faultMu.Unlock()
}

// FaultStats returns the service's fault-tolerance counters: faults the
// armed injector fired, retries spent, degraded re-runs, queries that
// exhausted their attempt budget, and per-query deadline expiries. All zero
// on an unarmed service with the zero RetryPolicy.
func (s *Service) FaultStats() metrics.FaultStats {
	s.faultMu.Lock()
	st := s.faultStats
	s.faultMu.Unlock()
	if in := s.cfg.Inject; in != nil {
		st.Injected = in.Injected()
	}
	return st
}

// withRetry executes run under the service's retry policy and the query's
// deadline. Each attempt gets the policy's per-attempt timeout; contained
// faults (and expired attempts) are retried with exponential backoff until
// the attempt budget or the query deadline runs out, degrading the execution
// profile after RetryPolicy.DegradeAfter failures. Returns the attempts
// spent, whether the last attempt ran degraded, and the final error.
func (s *Service) withRetry(ctx context.Context, q *queryConfig, run func(ctx context.Context, ov core.Overrides) error) (attempts int, degraded bool, err error) {
	if d := q.deadline(s.cfg.QueryTimeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// The query-level deadline (or the caller's cancellation) is final,
	// whether it lands in an attempt or in the backoff between two.
	ended := func() error {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.countFault(func(f *metrics.FaultStats) { f.Timeouts++ })
		}
		return ctx.Err()
	}
	pol := s.cfg.Retry
	backoff := pol.Backoff
	for attempts = 1; ; attempts++ {
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if pol.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, pol.AttemptTimeout)
		}
		ov := q.ov
		if degraded {
			ov = degradedOverrides(ov)
			s.countFault(func(f *metrics.FaultStats) { f.Degraded++ })
		}
		err = run(attemptCtx, ov)
		cancel()
		if err == nil {
			return attempts, degraded, nil
		}
		if ctx.Err() != nil {
			return attempts, degraded, ended()
		}
		// An expired attempt counts as a transient fault; anything else
		// non-fault-typed is final.
		expired := pol.AttemptTimeout > 0 && errors.Is(err, context.DeadlineExceeded)
		if !retryable(err) && !expired {
			return attempts, degraded, err
		}
		if attempts >= pol.attempts() {
			s.countFault(func(f *metrics.FaultStats) { f.Exhausted++ })
			return attempts, degraded, err
		}
		s.countFault(func(f *metrics.FaultStats) { f.Retries++ })
		// Re-key the injector so the retry rolls fresh fault decisions —
		// a deterministic fault would otherwise recur forever.
		if in := s.cfg.Inject; in != nil {
			in.NextAttempt()
		}
		if pol.DegradeAfter > 0 && attempts >= pol.DegradeAfter {
			degraded = true
		}
		if backoff > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return attempts, degraded, ended()
			case <-t.C:
			}
			backoff *= 2
		}
	}
}

// Run executes one BFS from source. The context is honored at iteration
// boundaries: cancellation or deadline expiry aborts the query within one
// BFS iteration and returns ctx.Err(). With Config.CoalesceQueries set,
// option-free calls are admitted to the sweep queue instead: concurrent
// callers batch into shared multi-source sweeps (bit-identical levels and
// parents; the per-query counters report the sweep's amortized shares), and
// cancellation then abandons the caller's wait without aborting the shared
// traversal.
func (s *Service) Run(ctx context.Context, source int64, opts ...QueryOption) (*Result, error) {
	if s.cfg.CoalesceQueries && len(opts) == 0 {
		return s.runCoalesced(ctx, source)
	}
	q, err := buildQuery(opts)
	if err != nil {
		return nil, err
	}
	var r *metrics.RunResult
	attempts, degraded, err := s.withRetry(ctx, &q, func(ctx context.Context, ov core.Overrides) error {
		var err error
		r, err = s.plan.Run(ctx, source, ov)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := convert(r)
	res.Attempts, res.Degraded = attempts, degraded
	return res, nil
}

// sweepReq is one coalesced Run call waiting for its sweep.
type sweepReq struct {
	source int64
	done   chan struct{}
	res    *Result
	err    error
}

// runCoalesced enqueues the request and, if no drain loop is running,
// becomes the leader that serves sweeps until the queue is empty.
func (s *Service) runCoalesced(ctx context.Context, source int64) (*Result, error) {
	req := &sweepReq{source: source, done: make(chan struct{})}
	s.admitMu.Lock()
	s.pendingQ = append(s.pendingQ, req)
	lead := !s.draining
	if lead {
		s.draining = true
	}
	s.admitMu.Unlock()
	if lead {
		s.drainSweeps()
	}
	select {
	case <-req.done:
		return req.res, req.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// drainSweeps serves admission batches until the queue empties: up to
// SweepWidth requests per sweep, requests arriving mid-sweep coalescing into
// the next round.
func (s *Service) drainSweeps() {
	for {
		s.admitMu.Lock()
		if len(s.pendingQ) == 0 {
			s.draining = false
			s.admitMu.Unlock()
			return
		}
		n := min(s.cfg.sweepWidth(), len(s.pendingQ))
		batch := make([]*sweepReq, n)
		copy(batch, s.pendingQ)
		s.pendingQ = append(s.pendingQ[:0], s.pendingQ[n:]...)
		s.admitMu.Unlock()
		s.serveSweep(batch)
	}
}

// serveSweep runs one admission batch as a single sweep (sources
// deduplicated; duplicates receive their own result copies) and completes
// every request.
func (s *Service) serveSweep(batch []*sweepReq) {
	sources := make([]int64, len(batch))
	for i, req := range batch {
		sources[i] = req.source
	}
	uniq, lane := dedupSources(sources)
	var q queryConfig
	var rs []*metrics.RunResult
	attempts, degraded, err := s.withRetry(context.Background(), &q, func(ctx context.Context, ov core.Overrides) error {
		var err error
		rs, err = s.plan.RunSweep(ctx, uniq, ov)
		return err
	})
	br := &BatchResult{Results: make([]*Result, len(batch))}
	if err == nil {
		expandResults(br, rs, lane)
		stampRetry(br.Results, attempts, degraded)
	}
	for i, req := range batch {
		req.res, req.err = br.Results[i], err
		close(req.done)
	}
}

// cloneResult deep-copies the per-vertex slices so duplicate-source callers
// never share mutable state.
func cloneResult(r *Result) *Result {
	c := *r
	c.Levels = slices.Clone(r.Levels)
	c.Parents = slices.Clone(r.Parents)
	return &c
}

// BatchOptions tunes a RunBatch call.
type BatchOptions struct {
	// Parallelism is the number of queries in flight at once; 0 or 1 runs
	// the batch serially. Results are deterministic and source-ordered
	// regardless of the value — parallelism changes wall-clock time only.
	Parallelism int
}

// BatchStats aggregates a batch the way the paper reports data points
// (§VI-A: geometric mean over runs with more than one iteration), plus the
// service-level throughput view.
type BatchStats struct {
	// Runs is the number of queries executed; Filtered counts those
	// dropped from GeoMeanGTEPS by the Graph500 >1-iteration rule.
	Runs, Filtered int
	// GeoMeanGTEPS is the paper's reporting convention; TotalGTEPS is the
	// aggregate service throughput — total TEPS edges over total simulated
	// seconds, i.e. the rate of the whole batch run back to back.
	GeoMeanGTEPS, TotalGTEPS float64
	// TotalSimSeconds sums every query's simulated time; MeanIterations
	// averages iteration counts over all runs.
	TotalSimSeconds float64
	MeanIterations  float64
	// Wire totals across the batch: bytes actually sent vs the fixed-width
	// equivalent, and the codec compute charged.
	WireBytes, WireRawBytes int64
	CodecSeconds            float64
	// Exchange totals across the batch, including the per-iteration
	// strategy split under the hybrid policy and the pipelining win
	// (codec compute hidden under butterfly hop transfers, and steps
	// where compute outlasted the wire).
	Messages, ForwardedBytes, MaxMessageBytes int64
	AllPairsIterations, ButterflyIterations   int64
	HiddenCodecSeconds                        float64
	PipelineStalls                            int64
	// NVLink totals across the batch: intra-rank time the hierarchical
	// exchange spent, and the share the pipelined butterfly hid under hop
	// transfers. Zero on single-GPU ranks.
	NVLinkSeconds, HiddenNVLinkSeconds float64
	// Session-pool observability: PoolHits counts this batch's queries that
	// reused a recycled session, PoolMisses those that allocated a fresh
	// one (hits + misses = Runs when the service is otherwise idle).
	// PeakInFlight is the service's lifetime high-water mark of
	// simultaneous queries as of batch end — across every batch and Run so
	// far, not this batch alone — the observed concurrency to size
	// Parallelism against.
	PoolHits, PoolMisses, PeakInFlight int64
}

// BatchResult is the outcome of RunBatch: per-query results in source order
// plus aggregated stats.
type BatchResult struct {
	Results []*Result
	Stats   BatchStats
}

// dedupSources returns the distinct sources in first-occurrence order plus
// each original position's index into that list.
func dedupSources(sources []int64) (uniq []int64, lane []int) {
	uniq = make([]int64, 0, len(sources))
	lane = make([]int, len(sources))
	idx := make(map[int64]int, len(sources))
	for i, src := range sources {
		l, ok := idx[src]
		if !ok {
			l = len(uniq)
			idx[src] = l
			uniq = append(uniq, src)
		}
		lane[i] = l
	}
	return uniq, lane
}

// expandResults maps per-unique-source results back onto the original source
// list: the first request for a source takes the converted result, duplicate
// requests get deep copies (per-request results without re-traversal), and
// every position — duplicates included — is folded into the stats.
func expandResults(br *BatchResult, rs []*metrics.RunResult, lane []int) {
	var rates []float64
	var tepsEdges int64
	used := make([]bool, len(rs))
	for i, l := range lane {
		r := rs[l]
		if used[l] {
			br.Results[i] = cloneResult(convert(r))
		} else {
			br.Results[i] = convert(r)
			used[l] = true
		}
		foldBatchStats(&br.Stats, &rates, &tepsEdges, r)
	}
	finishBatchStats(&br.Stats, rates, tepsEdges)
}

// foldBatchStats accumulates one query's counters into the batch stats.
func foldBatchStats(st *BatchStats, rates *[]float64, tepsEdges *int64, r *metrics.RunResult) {
	st.Runs++
	if r.MultipleIterations() {
		*rates = append(*rates, r.GTEPS())
	} else {
		st.Filtered++
	}
	*tepsEdges += r.TEPSEdges
	st.TotalSimSeconds += r.SimSeconds
	st.MeanIterations += float64(r.Iterations)
	st.WireBytes += r.Wire.CompressedBytes
	st.WireRawBytes += r.Wire.RawBytes
	st.CodecSeconds += r.Wire.CodecSeconds
	st.Messages += r.Exchange.Messages
	st.ForwardedBytes += r.Exchange.ForwardedBytes
	st.AllPairsIterations += r.Exchange.AllPairsIterations
	st.ButterflyIterations += r.Exchange.ButterflyIterations
	st.HiddenCodecSeconds += r.Exchange.HiddenCodecSeconds
	st.PipelineStalls += r.Exchange.PipelineStalls
	st.NVLinkSeconds += r.Exchange.NVLinkSeconds
	st.HiddenNVLinkSeconds += r.Exchange.HiddenNVLinkSeconds
	if r.Exchange.MaxMessageBytes > st.MaxMessageBytes {
		st.MaxMessageBytes = r.Exchange.MaxMessageBytes
	}
}

// finishBatchStats derives the batch aggregates from the folded counters.
func finishBatchStats(st *BatchStats, rates []float64, tepsEdges int64) {
	st.GeoMeanGTEPS = metrics.GeoMean(rates)
	if st.TotalSimSeconds > 0 {
		st.TotalGTEPS = float64(tepsEdges) / st.TotalSimSeconds / 1e9
	}
	if st.Runs > 0 {
		st.MeanIterations /= float64(st.Runs)
	}
}

// RunBatch executes one BFS per source with BatchOptions.Parallelism queries
// in flight at a time, all sharing the service's partitioned graph through
// pooled sessions. Results are source-ordered and bit-identical to a serial
// loop of Run calls with the same options; duplicate sources are traversed
// once and answered with per-request result copies. The first query error
// (including context cancellation) cancels the rest and is returned.
func (s *Service) RunBatch(ctx context.Context, sources []int64, bo BatchOptions, opts ...QueryOption) (*BatchResult, error) {
	q, err := buildQuery(opts)
	if err != nil {
		return nil, err
	}
	uniq, lane := dedupSources(sources)
	poolBefore := s.plan.PoolStats()
	var rs []*metrics.RunResult
	attempts, degraded, err := s.withRetry(ctx, &q, func(ctx context.Context, ov core.Overrides) error {
		var err error
		rs, err = s.plan.RunBatch(ctx, uniq, bo.Parallelism, ov)
		return err
	})
	if err != nil {
		return nil, err
	}
	poolAfter := s.plan.PoolStats()
	br := &BatchResult{Results: make([]*Result, len(sources))}
	br.Stats.PoolHits = poolAfter.Hits - poolBefore.Hits
	br.Stats.PoolMisses = poolAfter.Misses - poolBefore.Misses
	br.Stats.PeakInFlight = poolAfter.PeakInFlight
	expandResults(br, rs, lane)
	stampRetry(br.Results, attempts, degraded)
	return br, nil
}

// stampRetry records the call's retry outcome on every result (batch-level
// calls retry as a unit).
func stampRetry(results []*Result, attempts int, degraded bool) {
	for _, r := range results {
		r.Attempts, r.Degraded = attempts, degraded
	}
}

// RunSweep answers one BFS per source through shared multi-source sweeps
// (MS-BFS): sources are deduplicated, split into sweeps of at most
// Config.SweepWidth, and each sweep's single BSP traversal produces levels
// and parents bit-identical to independent Run calls while its counters and
// simulated time are divided evenly across the sweep's queries. Results are
// source-ordered; duplicate sources share one traversal lane and receive
// per-request result copies.
func (s *Service) RunSweep(ctx context.Context, sources []int64, opts ...QueryOption) (*BatchResult, error) {
	q, err := buildQuery(opts)
	if err != nil {
		return nil, err
	}
	if len(sources) == 0 && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	uniq, lane := dedupSources(sources)
	width := s.cfg.sweepWidth()
	rs := make([]*metrics.RunResult, 0, len(uniq))
	maxAttempts, anyDegraded := 0, false
	for start := 0; start < len(uniq); start += width {
		chunk := uniq[start:min(start+width, len(uniq))]
		var part []*metrics.RunResult
		attempts, degraded, err := s.withRetry(ctx, &q, func(ctx context.Context, ov core.Overrides) error {
			var err error
			part, err = s.plan.RunSweep(ctx, chunk, ov)
			return err
		})
		if err != nil {
			return nil, err
		}
		maxAttempts = max(maxAttempts, attempts)
		anyDegraded = anyDegraded || degraded
		rs = append(rs, part...)
	}
	br := &BatchResult{Results: make([]*Result, len(sources))}
	expandResults(br, rs, lane)
	stampRetry(br.Results, maxAttempts, anyDegraded)
	return br, nil
}

// Threshold returns the degree threshold in effect (useful when auto-tuned).
func (s *Service) Threshold() int64 { return s.sub.Sep.Threshold }

// Delegates returns the number of delegate vertices.
func (s *Service) Delegates() int64 { return s.sub.D() }

func convert(r *metrics.RunResult) *Result {
	return &Result{
		Source:                 r.Source,
		Iterations:             r.Iterations,
		Epoch:                  r.Epoch,
		SimSeconds:             r.SimSeconds,
		GTEPS:                  r.GTEPS(),
		Levels:                 r.Levels,
		Parents:                r.Parents,
		EdgesScanned:           r.EdgesScanned,
		Computation:            r.Parts.Computation,
		LocalComm:              r.Parts.LocalComm,
		RemoteNormal:           r.Parts.RemoteNormal,
		RemoteDelegate:         r.Parts.RemoteDelegate,
		WireBytes:              r.Wire.CompressedBytes,
		WireRawBytes:           r.Wire.RawBytes,
		CodecSeconds:           r.Wire.CodecSeconds,
		Messages:               r.Exchange.Messages,
		ForwardedBytes:         r.Exchange.ForwardedBytes,
		MaxMessageBytes:        r.Exchange.MaxMessageBytes,
		MaskRawBytes:           r.Wire.MaskRawBytes,
		MaskWireBytes:          r.Wire.MaskWireBytes,
		Exchange:               r.Exchange.Strategy,
		AllPairsIterations:     r.Exchange.AllPairsIterations,
		ButterflyIterations:    r.Exchange.ButterflyIterations,
		PredictedRemoteSeconds: r.Exchange.PredictedSeconds,
		HiddenCodecSeconds:     r.Exchange.HiddenCodecSeconds,
		PipelineStalls:         r.Exchange.PipelineStalls,
		NVLinkSeconds:          r.Exchange.NVLinkSeconds,
		HiddenNVLinkSeconds:    r.Exchange.HiddenNVLinkSeconds,
		CalibrationAllPairs:    r.Exchange.CalibrationAllPairs,
		CalibrationButterfly:   r.Exchange.CalibrationButterfly,
	}
}

// Validate checks a result's hop distances against the Graph500-style rules
// and against a serial reference BFS. The result must carry levels.
func (s *Service) Validate(r *Result) error {
	if r == nil {
		return fmt.Errorf("gcbfs: no result to validate")
	}
	if r.Levels == nil {
		return fmt.Errorf("gcbfs: result has no levels (levels not collected)")
	}
	if err := g500.Validate(s.g.el, r.Source, r.Levels); err != nil {
		return err
	}
	want := baseline.SerialBFS(graph.BuildCSR(s.g.el), r.Source)
	return g500.CompareLevels(r.Levels, want)
}

// MemoryReport summarizes the Table-I storage accounting of the partitioned
// graph.
type MemoryReport struct {
	TotalBytes     int64 // measured across all GPUs
	PredictedBytes int64 // 8n + 8d·p + 4m + 4|Enn|
	MaxGPUBytes    int64 // largest single-GPU footprint
	EdgeListBytes  int64 // conventional 16m representation
	PlainCSRBytes  int64 // 8n + 8m without degree separation
	Delegates      int64
	NNEdges        int64
}

// Memory returns the service's storage accounting.
func (s *Service) Memory() MemoryReport {
	return MemoryReport{
		TotalBytes:     s.sub.Memory().Total(),
		PredictedBytes: s.sub.PredictedTotal(),
		MaxGPUBytes:    s.sub.MaxGPUBytes(),
		EdgeListBytes:  s.sub.EdgeListBytes(),
		PlainCSRBytes:  s.sub.PlainCSRBytes(),
		Delegates:      s.sub.D(),
		NNEdges:        s.sub.CountNN,
	}
}

// Sources picks up to count distinct vertices with at least one edge,
// deterministically from seed — the paper's random-source methodology with
// reproducibility. When the graph has no more than count positive-degree
// vertices, all of them are returned (in ascending order) instead of
// looping forever.
func Sources(g *Graph, count int, seed int64) []int64 {
	return graph.PickSources(g.el.OutDegrees(), count, uint64(seed))
}

// GeoMeanGTEPS aggregates run rates the way the paper reports data points:
// geometric mean over runs with more than one iteration.
func GeoMeanGTEPS(results []*Result) float64 {
	var rates []float64
	for _, r := range results {
		if r.Iterations > 1 {
			rates = append(rates, r.GTEPS)
		}
	}
	return metrics.GeoMean(rates)
}
