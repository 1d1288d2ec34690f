package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// buildPlan partitions el for the shape/threshold and returns the plan.
func buildPlanT(t *testing.T, scale int, shape ClusterShape, opts Options, tightTH bool) *Plan {
	t.Helper()
	el := rmat.Generate(rmat.DefaultParams(scale))
	cap := 4 * el.N / int64(shape.P())
	if tightTH {
		cap = el.N / 8 // communication-heavy regime: real nn traffic
	}
	th := partition.SuggestThreshold(el.OutDegrees(), cap)
	sep := partition.Separate(el, th)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(sg, shape, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameRun(t *testing.T, label string, a, b *metrics.RunResult) {
	t.Helper()
	if a.Iterations != b.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	if a.SimSeconds != b.SimSeconds {
		t.Fatalf("%s: sim seconds %v vs %v", label, a.SimSeconds, b.SimSeconds)
	}
	if a.EdgesScanned != b.EdgesScanned {
		t.Fatalf("%s: edges scanned %d vs %d", label, a.EdgesScanned, b.EdgesScanned)
	}
	if (a.Levels == nil) != (b.Levels == nil) {
		t.Fatalf("%s: levels collected on one side only", label)
	}
	for v := range a.Levels {
		if a.Levels[v] != b.Levels[v] {
			t.Fatalf("%s: vertex %d level %d vs %d", label, v, a.Levels[v], b.Levels[v])
		}
	}
	if (a.Parents == nil) != (b.Parents == nil) {
		t.Fatalf("%s: parents collected on one side only", label)
	}
	for v := range a.Parents {
		if a.Parents[v] != b.Parents[v] {
			t.Fatalf("%s: vertex %d parent %d vs %d", label, v, a.Parents[v], b.Parents[v])
		}
	}
}

// TestPooledSessionsDeterministic reruns the same source through the pool
// (the second run reuses the first run's recycled session) and through the
// concurrent batch path; every result must be bit-identical.
func TestPooledSessionsDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.CollectParents = true
	p := buildPlanT(t, 12, ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1}, opts, false)
	ctx := context.Background()

	first, err := p.Run(ctx, 3, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Run(ctx, 3, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "recycled session", first, second)

	sources := []int64{3, 7, 9, 15, 21, 33}
	serial := make([]*metrics.RunResult, len(sources))
	for i, src := range sources {
		if serial[i], err = p.Run(ctx, src, Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := p.RunBatch(ctx, sources, 4, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sources {
		if batch[i].Source != sources[i] {
			t.Fatalf("batch result %d has source %d, want %d", i, batch[i].Source, sources[i])
		}
		sameRun(t, "batch vs serial", serial[i], batch[i])
	}
}

// TestPooledSessionSurvivesRepair runs Run → Repair → Run on one pooled
// Session. The repair runs the cold run's kernels, which write child-level
// bits (gpuState.hasChild) for the repair's own source; the second Run, from
// another source, must not see them: it is bit-identical to the first, replay
// pairs and pair bytes included. The delta is large enough (2 %) that the
// repair's wave, which starts where levels can change, pushes nn edges into
// a level above and so writes child-level bits the run did not.
func TestPooledSessionSurvivesRepair(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	shape := ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}
	opts := DefaultOptions()
	opts.CollectParents = true
	opts.Compression = wire.ModeAdaptive
	cfg := shape.PartitionConfig()
	sg1, err := partition.Distribute(el, partition.Separate(el, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlanEpoch(sg1, shape, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := delta.Synthesize(el, 0.02, delta.KindMixed, 3)
	el2, err := delta.Apply(el, b)
	if err != nil {
		t.Fatal(err)
	}
	sg2, _, err := partition.DistributeIncremental(el2, partition.Separate(el2, 32), cfg, sg1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlanEpoch(sg2, shape, opts, 2)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	repSrc := repairSource(el)
	prior, err := p1.Run(ctx, repSrc, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	runSrc := int64(slices.Index(prior.Levels, 2))
	in := &repairIn{source: repSrc, levels: prior.Levels, parents: prior.Parents, invalid: delta.Invalidated(prior.Levels, prior.Parents, b)}
	in.addInserts(b.Inserts)

	s := p2.acquire(opts)
	defer p2.release(s)
	first, err := s.run(ctx, runSrc)
	if err != nil {
		t.Fatal(err)
	}
	bits := func() (words [][]uint64) {
		for _, gs := range s.gpus {
			words = append(words, slices.Clone(gs.hasChild.Words()))
		}
		return words
	}
	runBits := bits()

	forward := opts
	forward.DirectionOptimized = false
	s.configure(forward)
	rep, err := s.repair(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations == 0 || reflect.DeepEqual(bits(), runBits) {
		t.Fatalf("the repair (%d supersteps) left the child-level bits as the run did: the test is vacuous", rep.Iterations)
	}

	s.configure(opts)
	second, err := s.run(ctx, runSrc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Iterations < 3 || first.ParentPairs == 0 {
		t.Fatalf("run from %d: %d supersteps, %d replay pairs: the test is vacuous", runSrc, first.Iterations, first.ParentPairs)
	}
	if second.ParentPairs != first.ParentPairs || second.Wire != first.Wire {
		t.Fatalf("after a repair: %d replay pairs, wire %+v; before: %d, %+v",
			second.ParentPairs, second.Wire, first.ParentPairs, first.Wire)
	}
	if !reflect.DeepEqual(first, second) {
		sameRun(t, "after a repair", first, second)
		t.Fatal("after a repair: the run's statistics differ")
	}
}

// TestOverridesValidated covers the per-query override validation and that
// overrides actually take effect without touching the plan's base options.
func TestOverridesValidated(t *testing.T) {
	p := buildPlanT(t, 11, ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 1}, DefaultOptions(), false)
	ctx := context.Background()

	for _, bad := range []wire.Mode{2, 3, 4, 99} {
		if _, err := p.Run(ctx, 1, Overrides{Compression: &bad}); err == nil {
			t.Fatalf("plan accepted compression override %d", bad)
		}
	}
	badX := Exchange(7)
	if _, err := p.Run(ctx, 1, Overrides{Exchange: &badX}); err == nil {
		t.Fatal("plan accepted an invalid exchange override")
	}

	adaptive := wire.ModeAdaptive
	noLevels := false
	res, err := p.Run(ctx, 1, Overrides{Compression: &adaptive, CollectLevels: &noLevels})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Wire.Enabled {
		t.Fatal("compression override did not reach the run")
	}
	if res.Levels != nil {
		t.Fatal("CollectLevels override did not reach the run")
	}
	if p.base.Compression != wire.ModeOff || !p.base.CollectLevels {
		t.Fatal("override leaked into the plan's base options")
	}
	// The next query must see the base options again (pooled session
	// reconfigured, not stuck with the previous query's overrides).
	res2, err := p.Run(ctx, 1, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Wire.Enabled || res2.Levels == nil {
		t.Fatal("recycled session kept the previous query's overrides")
	}
}

// TestRunContextPreCancelled: a dead context aborts before any work.
func TestRunContextPreCancelled(t *testing.T) {
	p := buildPlanT(t, 11, ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}, DefaultOptions(), false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx, 1, Overrides{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := p.RunBatch(ctx, []int64{1, 2}, 2, Overrides{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
}

// TestRunBatchRealErrorWins: a genuine query error (out-of-range source)
// must surface from RunBatch, not be masked by the internal cancellation it
// triggers for the remaining workers.
func TestRunBatchRealErrorWins(t *testing.T) {
	p := buildPlanT(t, 11, ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}, DefaultOptions(), false)
	_, err := p.RunBatch(context.Background(), []int64{1, 1 << 40, 2, 3}, 2, Overrides{})
	if err == nil {
		t.Fatal("batch with an out-of-range source succeeded")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("real query error masked by cancellation: %v", err)
	}
}

// errAfterCtx reports Canceled once Err has been polled more than `after`
// times — a deterministic stand-in for a context cancelled mid-run. Err is
// the only method the BSP loop consults at iteration boundaries.
type errAfterCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestRunCancelsAtIterationBoundary drives a run with a context that dies
// after the first iteration's polls; the query must abort within one
// superstep — the loop would otherwise run many more — and return ctx.Err(),
// under every exchange.
func TestRunCancelsAtIterationBoundary(t *testing.T) {
	shape := ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}
	for _, x := range []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid} {
		opts := DefaultOptions()
		opts.Exchange = x
		p := buildPlanT(t, 12, shape, opts, false)
		ctx := context.Background()

		full, err := p.Run(ctx, 1, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Iterations < 4 {
			t.Fatalf("reference run too short (%d iterations) to observe mid-run cancellation", full.Iterations)
		}

		// Plan.Run polls once up front, then the driver once per superstep, at
		// its post-exchange rendezvous: after=3 survives supersteps 0 and 1 and
		// dies in superstep 2, the last; the error is the fifth poll.
		cc := &errAfterCtx{Context: ctx, after: 3}
		res, err := p.Run(cc, 1, Overrides{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", x, err)
		}
		if res != nil {
			t.Fatalf("%s: cancelled run returned a result", x)
		}
		if polls := cc.calls.Load(); polls != 5 {
			t.Fatalf("%s: the context was polled %d times, want 5: the loop ran past the superstep it died in", x, polls)
		}
		// The next query on the recycled session must be unaffected.
		again, err := p.Run(ctx, 1, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, "after cancellation", full, again)
	}
}

// TestCodecCostCharged: the codec's pack/unpack compute appears in simulated
// time when compression is on (top ROADMAP item), is zero when off, and the
// butterfly's per-hop re-encode strictly exceeds the all-pairs codec work.
func TestCodecCostCharged(t *testing.T) {
	shape := ClusterShape{Nodes: 4, RanksPerNode: 1, GPUsPerRank: 2}
	run := func(mode wire.Mode, strat Exchange) *metrics.RunResult {
		opts := DefaultOptions()
		opts.Compression = mode
		opts.Exchange = strat
		p := buildPlanT(t, 12, shape, opts, true)
		res, err := p.Run(context.Background(), 2, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	off := run(wire.ModeOff, ExchangeAllPairs)
	if off.Wire.CodecBytes != 0 || off.Wire.CodecSeconds != 0 {
		t.Fatalf("codec-off run charged codec work: %d bytes, %v s",
			off.Wire.CodecBytes, off.Wire.CodecSeconds)
	}

	ap := run(wire.ModeAdaptive, ExchangeAllPairs)
	if ap.Wire.CodecBytes == 0 || ap.Wire.CodecSeconds <= 0 {
		t.Fatalf("adaptive run charged no codec work: %d bytes, %v s",
			ap.Wire.CodecBytes, ap.Wire.CodecSeconds)
	}
	if ap.Parts.RemoteNormal < ap.Wire.CodecSeconds {
		t.Fatalf("remote-normal %v s does not include codec %v s",
			ap.Parts.RemoteNormal, ap.Wire.CodecSeconds)
	}
	// Encode + decode both count: total codec volume is at least twice the
	// fixed-width payload equivalent.
	if ap.Wire.CodecBytes < 2*ap.Wire.RawBytes {
		t.Fatalf("codec bytes %d below 2× raw bytes %d (encode+decode)",
			ap.Wire.CodecBytes, ap.Wire.RawBytes)
	}

	bf := run(wire.ModeAdaptive, ExchangeButterfly)
	if bf.Exchange.ForwardedBytes == 0 {
		t.Fatal("butterfly forwarded nothing — codec comparison is vacuous")
	}
	if bf.Wire.CodecBytes <= ap.Wire.CodecBytes {
		t.Fatalf("butterfly codec bytes %d not above all-pairs %d — per-hop re-encode not counted",
			bf.Wire.CodecBytes, ap.Wire.CodecBytes)
	}
	// Charging codec time never changes the traversal itself.
	if ap.Iterations != bf.Iterations || ap.EdgesScanned != bf.EdgesScanned {
		t.Fatalf("strategies diverged functionally: %d/%d iterations, %d/%d edges",
			ap.Iterations, bf.Iterations, ap.EdgesScanned, bf.EdgesScanned)
	}
	for v := range ap.Levels {
		if ap.Levels[v] != bf.Levels[v] {
			t.Fatalf("vertex %d: level %d (allpairs) vs %d (butterfly)", v, ap.Levels[v], bf.Levels[v])
		}
	}
}

// TestPlanExposesItsState keeps the accessors callers outside the package
// build on honest.
func TestPlanExposesItsState(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(11))
	shape := ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}
	th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
	sep := partition.Separate(el, th)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(sg, shape, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.shape != shape || p.sg != sg {
		t.Fatal("plan does not expose the state it was built from")
	}
}

// TestSessionHoldsOneDelegateTierPerRank pins what a pooled Session allocates
// for a query that collects parents: one delegate tier per rank, which every
// GPU of the rank reads, and parent candidates in their uint32 form. The
// ceilings sit just above the measured footprint, well below the 523 088 and
// 517 040 bytes a tier per GPU and int64 parents took.
func TestSessionHoldsOneDelegateTierPerRank(t *testing.T) {
	opts := DefaultOptions()
	opts.CollectParents = true
	for _, tc := range []struct {
		shape   ClusterShape
		ceiling uint64 // bytes newSession + configure allocate (318 032, 241 968)
	}{
		{ClusterShape{2, 2, 2}, 330_000},
		{ClusterShape{2, 1, 4}, 255_000},
	} {
		p := buildPlanT(t, 14, tc.shape, opts, false)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := p.newSession()
		s.configure(opts)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.ceiling {
			t.Errorf("%s: a session allocates %d bytes, ceiling %d", tc.shape, got, tc.ceiling)
		}
		for rank, sc := range s.scratch {
			for _, gs := range s.rankGPUs(rank) {
				if gs.dt != &sc.dt {
					t.Errorf("%s: GPU %d does not read rank %d's delegate tier", tc.shape, gs.pg.GPU, rank)
				}
			}
		}
	}
}

// BenchmarkReset is what a cold run's reset (levels, hasChild bits, delegate
// levels) costs per call inline and fanned out over the driver's workers,
// their start and stop included, on RMAT graphs around fanReset: the
// measurement behind that constant.
func BenchmarkReset(b *testing.B) {
	shape := ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}
	for _, scale := range []int{15, 16, 17} {
		p := buildPlan(b, rmat.Generate(rmat.DefaultParams(scale)), shape, 0, DefaultOptions())
		s := p.acquire(p.base)
		world := s.acquireWorld()
		for _, fan := range []bool{false, true} {
			b.Run(fmt.Sprintf("n=%d/fan=%v", p.sg.N, fan), func(b *testing.B) {
				for range b.N {
					s.drv.reset(world)
					s.resetTraversal()
					s.drv.fan = fan
					if err := s.drv.run(s, phaseReset); err != nil {
						b.Fatal(err)
					}
					s.drv.stop()
				}
			})
		}
	}
}
