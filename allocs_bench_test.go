package gcbfs

// Allocation-regression benchmarks for the query hot path. The bench
// trajectory (internal/bench, BENCH_*.json) records allocs/query at
// Parallelism 1 and 8 with a +10% tolerance; these benchmarks are the
// fine-grained, per-commit guard: they measure the same path under
// `go test -bench` and fail outright if allocs/query climb back above the
// pre-arena count.
//
// History (RMAT scale 12, 2×2×2, adaptive codec + hybrid exchange, levels
// and parents off; measured via the ReadMemStats delta below):
//
//	pre-arena  (PR 5): ~1502 allocs/query serial, ~1509 at Parallelism 8
//	post-arena (PR 6): ~572 allocs/query serial, ~575 at Parallelism 8
//	                   (session-owned decode/merge arena, radix-bucketed
//	                   canonical apply, per-rank reusable scratch)
//	typed mpi  (PR 7): ~439 allocs/query serial, ~443 at Parallelism 8
//	                   (boxing-free int64/uint64 collectives with parity
//	                   double-buffered accumulators, reused float-max
//	                   reduction scratch)
//	wire+world (PR 8): ~62 allocs/query serial, ~66 at Parallelism 8
//	                   (append-style encoders into per-hop/per-destination
//	                   reusable message buffers, bump-allocated decode
//	                   headers, flattened and pooled mpi.World, per-rank
//	                   policy scratch)
//
//	append+radix (PR 15): unchanged on the cell above, which runs with
//	                   levels and parents off and so never saw the two
//	                   per-message allocations PR 15 removed: the default
//	                   fixed-width packing built a fresh buffer per message
//	                   (56 per superstep on 8 ranks) and the codec sorted a
//	                   fresh copy of every unsorted block and pair bin. The
//	                   two cells added with that PR run those paths.
//
// Each ceiling sits just above the latest measurement so a regression to an
// earlier allocation regime fails the benchmark while leaving headroom for
// noise (goroutine stacks, map growth and pool warmup vary run to run).

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/partition"
)

// allocCell is one guarded configuration: a cluster, the per-query options
// layered over DefaultConfig, and the allocs/query ceiling it must stay under.
type allocCell struct {
	cluster Cluster
	opts    []QueryOption
	ceiling float64
}

var (
	// allocsHybridAdaptive is the original cell (history above): ceiling well
	// below every earlier regime (~1500 pre-arena, ~572 pre-typed-collective,
	// ~443 pre-buffer-reuse), ~50% above the ~66 current count.
	allocsHybridAdaptive = allocCell{
		cluster: Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2},
		opts:    []QueryOption{WithCompression(CompressionAdaptive), WithExchange(ExchangeHybrid), WithLevels(false)},
		ceiling: 100,
	}
	// allocsDefaultTree is DefaultConfig answering with levels and parents:
	// fixed-width packing, all-pairs, the parent replay. ~21 now; packing
	// into a fresh buffer per message put it at ~86.
	allocsDefaultTree = allocCell{
		cluster: Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2},
		opts:    []QueryOption{WithParents(true)},
		ceiling: 45,
	}
	// allocsButterflyTree is the codec's sort path end to end on 8 ranks:
	// staged slots, relayed blocks and replay pair bins. ~97 now; a sorted
	// copy per block put it at ~644.
	allocsButterflyTree = allocCell{
		cluster: Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2},
		opts:    []QueryOption{WithCompression(CompressionAdaptive), WithExchange(ExchangeButterfly), WithParents(true)},
		ceiling: 160,
	}
)

func benchQueryAllocs(b *testing.B, cell allocCell, parallelism int) {
	g := RMAT(12)
	svc, err := NewService(g, DefaultConfig(cell.cluster))
	if err != nil {
		b.Fatal(err)
	}
	sources := Sources(g, 8, 7)
	opts := cell.opts
	ctx := context.Background()
	warm := func() {
		if _, err := svc.RunBatch(ctx, sources, BatchOptions{Parallelism: parallelism}, opts...); err != nil {
			b.Fatal(err)
		}
	}
	warm() // populate the session pool and size the arenas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm()
	}
	b.StopTimer()

	// Assert the cell's ceiling holds. Measured outside the timed loop so the
	// guard does not perturb the reported metric. The collector runs once,
	// before a warm-up, and stays off until the measurement is taken: a
	// collection in between can empty the session pool the warm-up filled.
	// The minimum over a few batches drops the ones where sync.Pool missed
	// anyway (a session parked on another P is a fresh ~150-alloc session).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	warm()
	mallocs := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		warm()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	perQuery := float64(mallocs) / float64(len(sources))
	b.ReportMetric(perQuery, "allocs/query")
	if perQuery >= cell.ceiling {
		b.Fatalf("allocs/query = %.0f, want < %.0f (a per-message or per-block allocation is back on the query path)",
			perQuery, cell.ceiling)
	}
}

// BenchmarkQueryAllocs measures heap allocations per BFS query on the
// serial path (one pooled Session reused for every query).
func BenchmarkQueryAllocs(b *testing.B) { benchQueryAllocs(b, allocsHybridAdaptive, 1) }

// BenchmarkQueryAllocsParallel8 measures the same metric with 8 queries in
// flight — the pool high-water regime where per-query scratch dominates.
func BenchmarkQueryAllocsParallel8(b *testing.B) { benchQueryAllocs(b, allocsHybridAdaptive, 8) }

// BenchmarkQueryAllocsDefaultTree guards the default configuration with the
// BFS tree collected.
func BenchmarkQueryAllocsDefaultTree(b *testing.B) { benchQueryAllocs(b, allocsDefaultTree, 1) }

// BenchmarkQueryAllocsButterflyTree guards the codec sort path: butterfly,
// adaptive codec and the parent replay on 8 ranks.
func BenchmarkQueryAllocsButterflyTree(b *testing.B) { benchQueryAllocs(b, allocsButterflyTree, 1) }

// BenchmarkSweepAllocBytes guards what one 64-lane sweep allocates on the
// shape of the rmat16-sweep host workload (RMAT scale 16, 4×2×2, adaptive
// codec, levels and parents). A sweep's state is garbage after the call, not
// pooled, so its bytes are the bill: 115.4 MiB now — 48 the 64 results, 44 the
// tree resolution's (vertex, lane) candidates on all ranks — where a reduction
// that widened the delegate candidates to int64 stripe by stripe made it
// 124.5 MiB, and 64 per-lane level arrays on every GPU, filled with -1 and
// resolved one lane at a time, 140 MiB and a third of the call. The ceiling
// sits between the first two.
func BenchmarkSweepAllocBytes(b *testing.B) {
	g := RMAT(16)
	cfg := DefaultConfig(Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2})
	cfg.Compression = CompressionAdaptive
	cfg.CollectParents = true
	svc, err := NewService(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sources := Sources(g, 64, 7)
	ctx := context.Background()
	sweep := func() {
		if _, err := svc.RunSweep(ctx, sources); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()

	bytes := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sweep()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	b.ReportMetric(float64(bytes)/(1<<20), "MiB/sweep")
	const ceiling = 120 << 20
	if bytes >= ceiling {
		b.Fatalf("a 64-lane sweep allocated %d MiB, want < %d (per-lane state is back, or a buffer grows from nothing)",
			bytes>>20, ceiling>>20)
	}
}

// BenchmarkEpochBuild is what a MutableService pays to publish an epoch, on
// the shape of the rmat16-mutable host workload (RMAT scale 16, 4×2×2, a
// 0.1 % mixed delta): "service" is one ApplyDelta per iteration, each on the
// graph the previous one left (synthesizing the delta is off the clock);
// "apply" and "distribute" time its two expensive layers alone —
// delta.Apply and partition.DistributeIncremental against the previous
// epoch's subgraphs. Run with -benchmem: the build's transient buckets show
// up as B/op, not in any live-heap figure.
func BenchmarkEpochBuild(b *testing.B) {
	g := RMAT(16)
	cfg := DefaultConfig(Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2})
	pcfg := cfg.Cluster.shape().PartitionConfig()
	d, err := SynthesizeDelta(g, 0.001, "mixed", 1)
	if err != nil {
		b.Fatal(err)
	}
	th := cfg.threshold(g.el.OutDegrees())
	prev, err := partition.Distribute(g.el, partition.Separate(g.el, th), pcfg)
	if err != nil {
		b.Fatal(err)
	}
	next, err := delta.Apply(g.el, d.batch())
	if err != nil {
		b.Fatal(err)
	}

	b.Run("service", func(b *testing.B) {
		m, err := NewMutableService(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d, err := SynthesizeDelta(m.Graph(), 0.001, "mixed", uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := m.ApplyDelta(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apply", func(b *testing.B) {
		batch := d.batch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := delta.Apply(g.el, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("distribute", func(b *testing.B) {
		sep := partition.Separate(next, th)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := partition.DistributeIncremental(next, sep, pcfg, prev); err != nil {
				b.Fatal(err)
			}
		}
	})
}
