package gcbfs

// Incremental graphs: epoch-versioned plans over a mutating edge list.
//
// A MutableService wraps the immutable Service in an epoch chain: every
// ApplyDelta builds the NEXT epoch's partition and plan beside the live one —
// reusing the fixed degree threshold, the modular partition assignment, and
// (through partition.DistributeIncremental) the per-GPU subgraph state of
// every GPU whose routed edge sequence did not change — then publishes it
// with one atomic pointer swap. Sharing saves memory on a localised delta;
// it is not what makes an epoch cheap. A delta spread over the graph (the
// 0.1 % random deltas of the host benchmark touch every GPU, and move a
// vertex across the threshold every time) shares nothing, so the build is
// made fast outright: delta.ApplyDegrees and the distributor are parallel,
// cache-sized passes, the out-degrees are carried from the epoch before
// rather than counted, and an epoch costs about what a cold NewService does.
// Queries admit themselves with a single atomic load, so a query in flight
// across a swap finishes entirely on its admission epoch (the old plan,
// subgraphs and pooled sessions stay valid and untouched), while every call
// after the swap lands on the new epoch. Result.Epoch carries the admission
// proof.
//
// Repair is the dynamic-BFS half: given a prior result (levels AND parents)
// from the immediately preceding epoch and the Delta that advanced it, the
// service derives the invalidated set by walking the orphaned subtrees down
// the new epoch's partitioned rows (delta.InvalidatedRows over
// partition.Subgraphs.Neighbors: a normal vertex's nn and nd rows on its
// owner GPU, a delegate's dn and dd slices on every GPU), at the cost of those
// subtrees' rows rather than of n, and runs the corrective traversal
// (core.Plan.Repair) on the new epoch — bit-identical in levels and parents to
// a full recompute, usually in far fewer simulated seconds when the delta is
// small, and in far fewer of the host's: the returned tree is a copy of the
// prior's, re-resolved only where the delta could have changed it.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gcbfs/internal/core"
	"gcbfs/internal/delta"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
)

// Edge names one undirected vertex pair {U, V} in a Delta.
type Edge struct {
	U, V int64
}

// Delta is one atomic batch of undirected edge mutations for
// MutableService.ApplyDelta. Each pair may appear at most once across the
// whole batch; deletes must name edges the graph contains.
type Delta struct {
	Inserts []Edge
	Deletes []Edge
}

// Size returns the number of undirected mutations in the delta.
func (d *Delta) Size() int {
	if d == nil {
		return 0
	}
	return len(d.Inserts) + len(d.Deletes)
}

// batch converts the public Delta to the internal representation.
func (d *Delta) batch() *delta.Batch {
	if d == nil {
		return &delta.Batch{}
	}
	b := &delta.Batch{
		Inserts: make([]graph.Edge, len(d.Inserts)),
		Deletes: make([]graph.Edge, len(d.Deletes)),
	}
	for i, e := range d.Inserts {
		b.Inserts[i] = graph.Edge{U: e.U, V: e.V}
	}
	for i, e := range d.Deletes {
		b.Deletes[i] = graph.Edge{U: e.U, V: e.V}
	}
	return b
}

// fingerprint folds the delta's edge sequences into one word (FNV-1a over
// kind-tagged endpoints). Order-sensitive on purpose: Repair demands the
// same Delta value ApplyDelta consumed, not merely an equivalent set.
func (d *Delta) fingerprint() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * prime
			x >>= 8
		}
	}
	if d == nil {
		return h
	}
	for _, e := range d.Inserts {
		mix(1)
		mix(uint64(e.U))
		mix(uint64(e.V))
	}
	for _, e := range d.Deletes {
		mix(2)
		mix(uint64(e.U))
		mix(uint64(e.V))
	}
	return h
}

// SynthesizeDelta generates a deterministic random delta touching about frac
// of the graph's undirected edges: kind "insert", "delete" or "mixed"
// (half/half). Inserted pairs avoid existing edges and self loops; deleted
// pairs are sampled from the graph. The same (graph, frac, kind, seed)
// always yields the same delta — the replay substrate of bfsrun -updates and
// the cmp6 ablation.
func SynthesizeDelta(g *Graph, frac float64, kind string, seed uint64) (*Delta, error) {
	k, err := delta.ParseKind(kind)
	if err != nil {
		return nil, err
	}
	b := delta.Synthesize(g.el, frac, k, seed)
	d := &Delta{
		Inserts: make([]Edge, len(b.Inserts)),
		Deletes: make([]Edge, len(b.Deletes)),
	}
	for i, e := range b.Inserts {
		d.Inserts[i] = Edge{U: e.U, V: e.V}
	}
	for i, e := range b.Deletes {
		d.Deletes[i] = Edge{U: e.U, V: e.V}
	}
	return d, nil
}

// MutableService is an epoch-versioned BFS query service over a mutating
// graph. Reads (Run, RunBatch, RunSweep, Repair, Validate, accessors) are
// safe from any number of goroutines and admit themselves to the current
// epoch with one atomic load; ApplyDelta calls are serialized among
// themselves and swap the epoch atomically without blocking readers.
type MutableService struct {
	cfg Config
	th  int64 // degree threshold, fixed at construction for every epoch

	// applyMu serializes writers (ApplyDelta); readers never take it.
	applyMu sync.Mutex
	// cur is the live epoch's immutable Service. Swapped whole; never
	// mutated in place.
	cur atomic.Pointer[Service]

	// ep tracks the epoch chain's garbage collection: which retired epochs
	// are still reachable (pinned by Snapshot references or in-flight
	// queries) and which the runtime has reclaimed.
	ep epochTracker
}

// epochTracker observes retired epoch Services without keeping them alive:
// it records only epoch numbers and retirement times, and learns about
// reclamation through per-Service finalizers.
type epochTracker struct {
	mu        sync.Mutex
	pinned    map[uint64]time.Time // superseded-at per retired epoch not yet collected
	retired   int64
	collected int64
}

// retire records an epoch superseded by an ApplyDelta swap and arms the
// finalizer that reports its eventual collection. Called with the swap
// already published; svc must be the superseded Service.
func (t *epochTracker) retire(svc *Service) {
	epoch := svc.plan.Epoch()
	t.mu.Lock()
	if t.pinned == nil {
		t.pinned = make(map[uint64]time.Time)
	}
	t.pinned[epoch] = time.Now()
	t.retired++
	t.mu.Unlock()
	// The closure captures the epoch number and the tracker, never svc —
	// a finalizer that kept its object reachable would never run.
	runtime.SetFinalizer(svc, func(*Service) {
		t.mu.Lock()
		delete(t.pinned, epoch)
		t.collected++
		t.mu.Unlock()
	})
}

// EpochStats reports the epoch chain's garbage-collection telemetry: how
// many epoch Services are still reachable, how many ApplyDelta has retired
// over the service's lifetime, and how many of those the runtime has
// reclaimed. Collection is observed through finalizers, so CollectedEpochs
// lags actual unreachability until a GC cycle runs.
type EpochStats struct {
	// LiveEpochs counts epoch Services still reachable: the current epoch
	// plus every retired epoch not yet reclaimed (pinned by a Snapshot
	// reference, an in-flight query, or simply not yet collected).
	LiveEpochs int
	// RetiredEpochs counts epochs superseded by ApplyDelta swaps.
	RetiredEpochs int64
	// CollectedEpochs counts retired epochs whose Service the runtime has
	// reclaimed; RetiredEpochs − CollectedEpochs epochs are still held.
	CollectedEpochs int64
	// OldestPinnedAge is the time since the oldest still-reachable retired
	// epoch was superseded — the age of the longest-held snapshot. Zero when
	// every retired epoch has been collected.
	OldestPinnedAge time.Duration
}

// Stats returns the current epoch-chain GC telemetry.
func (m *MutableService) Stats() EpochStats {
	t := &m.ep
	t.mu.Lock()
	defer t.mu.Unlock()
	s := EpochStats{
		LiveEpochs:      1 + len(t.pinned),
		RetiredEpochs:   t.retired,
		CollectedEpochs: t.collected,
	}
	for _, at := range t.pinned {
		if age := time.Since(at); age > s.OldestPinnedAge {
			s.OldestPinnedAge = age
		}
	}
	return s
}

// NewMutableService builds epoch 1 of the service: the graph is partitioned
// exactly as NewService would, and the degree-separation threshold (given or
// auto-tuned on this initial graph) is fixed for the service's lifetime so
// successive epochs keep comparable delegate sets.
func NewMutableService(g *Graph, cfg Config) (*MutableService, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sep, err := cfg.separate(g)
	if err != nil {
		return nil, err
	}
	svc, _, err := newEpochService(g, cfg, sep, 1, nil)
	if err != nil {
		return nil, err
	}
	m := &MutableService{cfg: cfg, th: sep.Threshold}
	m.cur.Store(svc)
	return m, nil
}

// EpochUpdate reports one ApplyDelta: the epoch it published, how much of
// the previous epoch's partitioned state the build reused, and what the
// build cost while the old epoch kept serving.
type EpochUpdate struct {
	// Epoch is the new live epoch number.
	Epoch uint64
	// SharedGPUs counts per-GPU subgraphs reused from the previous epoch
	// (out of Cluster.GPUs()): the same *GPUGraph, decided by exact
	// comparison, for every GPU whose routed edge sequence did not change.
	// It is 0 whenever the delta moves any vertex across the degree
	// threshold (the delegate numbering shifts on every GPU) and for any
	// delta that reaches every GPU — expect non-zero only for localised
	// deltas on graphs with few delegates.
	SharedGPUs int
	// BuildSeconds is the wall-clock time the next-epoch build took —
	// overlap it mentally with the queries the old epoch answered meanwhile.
	BuildSeconds float64
	// LiveEpochs and RetiredEpochs snapshot the epoch-chain GC telemetry as
	// of this swap (see EpochStats): reachable epoch Services including the
	// one just published, and lifetime epochs superseded so far.
	LiveEpochs    int
	RetiredEpochs int64
}

// ApplyDelta advances the graph by one atomic batch of edge mutations: the
// next epoch's edge list, partition and plan are built beside the live ones
// (sharing unchanged per-GPU subgraphs with the previous epoch), then
// published with one atomic swap. delta.ApplyDegrees compacts the list (a
// filtered scan and a parallel copy) and derives its out-degrees from the
// live epoch's, so the degree separation reads no edge; the distributor then
// routes every edge once (Algorithm 1) and builds each GPU's CSRs from what
// it was sent. Queries already admitted — including
// coalesced sweeps draining their queue — finish on their admission epoch;
// every later call sees the new one. Concurrent ApplyDelta calls are
// serialized in arrival order.
func (m *MutableService) ApplyDelta(d *Delta) (*EpochUpdate, error) {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	cur := m.cur.Load()
	start := time.Now()
	el2, deg2, err := delta.ApplyDegrees(cur.g.el, d.batch(), cur.sub.Sep.OutDeg)
	if err != nil {
		return nil, err
	}
	epoch := cur.plan.Epoch() + 1
	svc, shared, err := newEpochService(&Graph{el: el2}, m.cfg, partition.SeparateDegrees(deg2, m.th), epoch, cur.sub)
	if err != nil {
		return nil, err
	}
	svc.deltaFP = d.fingerprint()
	m.cur.Store(svc)
	m.ep.retire(cur)
	st := m.Stats()
	return &EpochUpdate{
		Epoch: epoch, SharedGPUs: shared, BuildSeconds: time.Since(start).Seconds(),
		LiveEpochs: st.LiveEpochs, RetiredEpochs: st.RetiredEpochs,
	}, nil
}

// Epoch returns the current live epoch number.
func (m *MutableService) Epoch() uint64 { return m.cur.Load().plan.Epoch() }

// Graph returns the current epoch's graph snapshot. It is immutable — feed
// mutations through ApplyDelta, never Graph.AddUndirectedEdge.
func (m *MutableService) Graph() *Graph { return m.cur.Load().g }

// Snapshot returns the current epoch's immutable Service. Queries on the
// snapshot keep answering against that epoch even after later ApplyDelta
// calls — the pinned-version escape hatch.
func (m *MutableService) Snapshot() *Service { return m.cur.Load() }

// Run executes one BFS on the current epoch; see Service.Run for context,
// option and coalescing semantics. The result's Epoch field reports the
// admission epoch.
func (m *MutableService) Run(ctx context.Context, source int64, opts ...QueryOption) (*Result, error) {
	return m.cur.Load().Run(ctx, source, opts...)
}

// RunBatch executes one BFS per source on the current epoch; see
// Service.RunBatch.
func (m *MutableService) RunBatch(ctx context.Context, sources []int64, bo BatchOptions, opts ...QueryOption) (*BatchResult, error) {
	return m.cur.Load().RunBatch(ctx, sources, bo, opts...)
}

// RunSweep answers one BFS per source through shared multi-source sweeps on
// the current epoch; see Service.RunSweep.
func (m *MutableService) RunSweep(ctx context.Context, sources []int64, opts ...QueryOption) (*BatchResult, error) {
	return m.cur.Load().RunSweep(ctx, sources, opts...)
}

// Repair advances a prior epoch's BFS result across the delta that advanced
// the graph, without re-traversing the unchanged bulk: prior must carry
// levels AND parents and have been produced on the epoch immediately before
// the current one, and d must be the exact Delta the intervening ApplyDelta
// published — both are enforced (the delta by fingerprint), because a
// mismatched delta would silently seed the wrong corrective set. The
// orphaned subtrees of deleted tree edges are found from the new epoch's rows
// (delta.InvalidatedRows: a child is a neighbor whose prior parent is the
// vertex read), which costs what those subtrees' rows hold, never more than
// one parent-chain pass over every vertex. The corrective traversal starts
// where a level can change — the orphaned subtrees, each vertex at the
// tentative level a probe of its row gives it (one more than its best valid
// neighbor's), and the inserts that shorten a path — and runs through the same
// tuned exchange stack as a full query. The tree is then not resolved again from
// nothing: the result starts as a copy of prior's arrays (prior itself is only
// read, so a retried Repair sees the same input), and only the vertices the
// wave re-levelled, the delta invalidated or an inserted edge touches look
// for their smallest parent again, offering themselves to their neighbors as
// they do — unless that set has grown so large that resolving every vertex
// reads less. Either way the levels and parents are bit-identical to
// recomputing from scratch on the new epoch.
func (m *MutableService) Repair(ctx context.Context, prior *Result, d *Delta, opts ...QueryOption) (*Result, error) {
	cur := m.cur.Load()
	if prior == nil || prior.Levels == nil || prior.Parents == nil {
		return nil, fmt.Errorf("gcbfs: Repair needs a prior result with levels and parents (run with WithParents or Config.CollectParents)")
	}
	if want := cur.plan.Epoch(); prior.Epoch+1 != want {
		return nil, fmt.Errorf("gcbfs: prior result is from epoch %d, repair onto epoch %d needs epoch %d (re-run or repair step by step)",
			prior.Epoch, want, want-1)
	}
	if n := cur.sub.N; int64(len(prior.Levels)) != n || int64(len(prior.Parents)) != n {
		return nil, fmt.Errorf("gcbfs: prior result covers %d levels and %d parents, the graph has %d vertices", len(prior.Levels), len(prior.Parents), n)
	}
	if d.fingerprint() != cur.deltaFP {
		return nil, fmt.Errorf("gcbfs: delta does not match the one ApplyDelta published for epoch %d (pass the exact Delta value)", cur.plan.Epoch())
	}
	q, err := buildQuery(opts)
	if err != nil {
		return nil, err
	}
	b := d.batch()
	invalid := delta.InvalidatedRows(prior.Levels, prior.Parents, b, cur.sub.Neighbors)
	pt := core.Prior{Source: prior.Source, Levels: prior.Levels, Parents: prior.Parents}
	var r *metrics.RunResult
	attempts, degraded, err := cur.withRetry(ctx, &q, func(ctx context.Context, ov core.Overrides) error {
		var err error
		r, err = cur.plan.Repair(ctx, pt, invalid, b.Inserts, ov)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := convert(r)
	res.Attempts, res.Degraded = attempts, degraded
	return res, nil
}

// Validate checks a result produced on the CURRENT epoch against the
// Graph500 rules and a serial reference BFS on the current graph. Results
// from earlier epochs are rejected — their reference graph is gone.
func (m *MutableService) Validate(r *Result) error {
	cur := m.cur.Load()
	if r.Epoch != cur.plan.Epoch() {
		return fmt.Errorf("gcbfs: result from epoch %d cannot be validated against live epoch %d", r.Epoch, cur.plan.Epoch())
	}
	return cur.Validate(r)
}

// Threshold returns the fixed degree-separation threshold every epoch uses.
func (m *MutableService) Threshold() int64 { return m.th }

// Memory returns the current epoch's storage accounting.
func (m *MutableService) Memory() MemoryReport { return m.cur.Load().Memory() }
