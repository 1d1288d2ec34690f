package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// buildTestPlan partitions el and returns a Plan (the sweep entry point).
func buildTestPlan(t testing.TB, el *graph.EdgeList, shape ClusterShape, th int64, opts Options) *Plan {
	t.Helper()
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

// requireSweepMatchesRuns asserts the tentpole's contract: RunSweep's
// per-query levels, parents and iteration counts are bit-identical to K
// independent Plan.Run calls, and its replay-pair accounting to theirs with
// the child-level filter off — a lane replays every visited row.
func requireSweepMatchesRuns(t *testing.T, p *Plan, sources []int64, ov Overrides) {
	t.Helper()
	ctx := context.Background()
	sweep, err := p.RunSweep(ctx, sources, ov)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != len(sources) {
		t.Fatalf("sweep returned %d results for %d sources", len(sweep), len(sources))
	}
	for q, src := range sources {
		single, err := p.Run(ctx, src, ov)
		if err != nil {
			t.Fatal(err)
		}
		got := sweep[q]
		if got.Source != src {
			t.Fatalf("query %d: source %d, want %d", q, got.Source, src)
		}
		if got.Iterations != single.Iterations {
			t.Fatalf("query %d (src %d): iterations %d, want %d", q, src, got.Iterations, single.Iterations)
		}
		if len(got.Levels) != len(single.Levels) {
			t.Fatalf("query %d: levels length %d, want %d", q, len(got.Levels), len(single.Levels))
		}
		for v := range single.Levels {
			if got.Levels[v] != single.Levels[v] {
				t.Fatalf("query %d (src %d): vertex %d level %d, want %d",
					q, src, v, got.Levels[v], single.Levels[v])
			}
		}
		if (got.Parents == nil) != (single.Parents == nil) {
			t.Fatalf("query %d: parents presence mismatch", q)
		}
		for v := range single.Parents {
			if got.Parents[v] != single.Parents[v] {
				t.Fatalf("query %d (src %d): vertex %d parent %d, want %d",
					q, src, v, got.Parents[v], single.Parents[v])
			}
		}
		// The shared replay is accounted per lane as the lane's own replay
		// would be: the pairs an unfiltered Run reports, at 12 bytes each
		// between ranks. Run itself sends the subset its child-level bits pass.
		all := runUnfiltered(t, p, src, ov)
		if got.ParentPairs != all.ParentPairs || got.Wire.PairRawBytes != all.Wire.PairRawBytes {
			t.Fatalf("query %d (src %d): %d parent pairs / %d raw bytes, the unfiltered Run reports %d / %d",
				q, src, got.ParentPairs, got.Wire.PairRawBytes, all.ParentPairs, all.Wire.PairRawBytes)
		}
		if single.ParentPairs > all.ParentPairs || single.Wire.PairRawBytes > all.Wire.PairRawBytes {
			t.Fatalf("query %d (src %d): Run sent %d parent pairs / %d raw bytes, more than the %d / %d of an unfiltered replay",
				q, src, single.ParentPairs, single.Wire.PairRawBytes, all.ParentPairs, all.Wire.PairRawBytes)
		}
	}
}

func TestSweepBitIdenticalToRuns(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	deg := el.OutDegrees()
	sources := pickSources(deg, 6, 17)
	for _, shape := range []ClusterShape{{1, 1, 1}, {2, 1, 2}, {3, 1, 2}} {
		for name, mode := range map[string]wire.Mode{"off": wire.ModeOff, "adaptive": wire.ModeAdaptive} {
			opts := DefaultOptions()
			opts.CollectParents = true
			opts.Compression = mode
			p := buildTestPlan(t, el, shape, 8, opts)
			t.Run(shape.String()+"/"+name, func(t *testing.T) {
				requireSweepMatchesRuns(t, p, sources, Overrides{})
			})
		}
	}
}

// The corners of the sweep's table: one lane, an odd rank count, four GPUs
// per rank, every vertex a delegate and none.
func TestSweepCornerShapes(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	sources := pickSources(el.OutDegrees(), 5, 29)
	for _, tc := range []struct {
		name    string
		shape   ClusterShape
		th      int64
		sources []int64
	}{
		{"K=1", ClusterShape{2, 1, 2}, 8, sources[:1]},
		{"3x1", ClusterShape{3, 1, 1}, 8, sources},
		{"pgpu=4", ClusterShape{1, 2, 4}, 8, sources},
		{"all-delegate", ClusterShape{2, 1, 2}, 0, sources},
		{"zero-delegate", ClusterShape{2, 1, 2}, 1 << 40, sources},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.CollectParents = true
			opts.Compression = wire.ModeAdaptive
			requireSweepMatchesRuns(t, buildTestPlan(t, el, tc.shape, tc.th, opts), tc.sources, Overrides{})
		})
	}
}

// TestSweepFollowsExchange: a sweep rides whichever exchange the query asks
// for — all-pairs, the butterfly or the per-superstep hybrid — and on every
// one each lane gets the levels and parents of an independent Run, bit for
// bit: one lane, one mask word and two, on every remainder shape and GPU
// count, codec off and on. A butterfly sweep sends the butterfly's messages —
// q·log2(q) hypercube sends plus two per remainder rank per superstep — where
// all-pairs sends p·(p−1).
func TestSweepFollowsExchange(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	sources := pickSources(el.OutDegrees(), 70, 41)
	ctx := context.Background()
	for _, ranks := range []int{1, 3, 5, 6, 8} {
		q, rem, nhops := hypercubeGeometry(ranks)
		perStep := map[Exchange]int64{
			ExchangeAllPairs:  int64(ranks * (ranks - 1)),
			ExchangeButterfly: int64(q*nhops + 2*rem),
		}
		for _, pgpu := range []int{1, 2, 4} {
			shape := ClusterShape{Nodes: ranks, RanksPerNode: 1, GPUsPerRank: pgpu}
			for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
				opts := DefaultOptions()
				opts.CollectParents = true
				opts.Compression = mode
				p := buildTestPlan(t, el, shape, 8, opts)
				runs := make([]*metrics.RunResult, len(sources))
				for i, src := range sources {
					r, err := p.Run(ctx, src, Overrides{})
					if err != nil {
						t.Fatal(err)
					}
					runs[i] = r
				}
				for _, x := range []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid} {
					for _, k := range []int{1, 64, 70} {
						label := fmt.Sprintf("%s/%s/%s/K=%d", shape, mode, x, k)
						sweep, err := p.RunSweep(ctx, sources[:k], Overrides{Exchange: &x})
						if err != nil {
							t.Fatal(err)
						}
						supersteps := 0
						for i, got := range sweep {
							want := runs[i]
							if got.Iterations != want.Iterations || !slices.Equal(got.Levels, want.Levels) || !slices.Equal(got.Parents, want.Parents) {
								t.Fatalf("%s: lane %d (source %d) differs from its Run", label, i, sources[i])
							}
							supersteps = max(supersteps, got.Iterations)
						}
						st := sweep[0].Exchange
						if st.Strategy != "sweep" || st.AllPairsIterations+st.ButterflyIterations != int64(supersteps) {
							t.Fatalf("%s: strategy %q, %d all-pairs + %d butterfly of %d supersteps",
								label, st.Strategy, st.AllPairsIterations, st.ButterflyIterations, supersteps)
						}
						if x == ExchangeHybrid {
							continue
						}
						if ran := map[Exchange]int64{ExchangeAllPairs: st.AllPairsIterations, ExchangeButterfly: st.ButterflyIterations}[x]; ran != int64(supersteps) {
							t.Fatalf("%s: ran %d of %d supersteps on the asked exchange", label, ran, supersteps)
						}
						if want := int64(supersteps) * perStep[x] / int64(k); st.Messages != want {
							t.Fatalf("%s: %d messages per lane, want supersteps·%d/K = %d", label, st.Messages, perStep[x], want)
						}
					}
				}
			}
		}
	}
}

func TestSweepDelegateAndNormalSources(t *testing.T) {
	// Star: hub 0 is a delegate at TH=5, leaves are normal — seed both kinds
	// in one sweep, plus a duplicate lane.
	el := gen.Star(40)
	opts := DefaultOptions()
	opts.CollectParents = true
	p := buildTestPlan(t, el, ClusterShape{2, 1, 2}, 5, opts)
	requireSweepMatchesRuns(t, p, []int64{0, 17, 3, 17}, Overrides{})
}

func TestSweepMultiWordWidths(t *testing.T) {
	// K=70 needs two mask words per record; duplicates pad the lane count.
	el := rmat.Generate(rmat.DefaultParams(8))
	deg := el.OutDegrees()
	base := pickSources(deg, 10, 23)
	sources := make([]int64, 0, 70)
	for len(sources) < 70 {
		sources = append(sources, base[len(sources)%len(base)])
	}
	opts := DefaultOptions()
	opts.CollectParents = true
	opts.Compression = wire.ModeAdaptive
	p := buildTestPlan(t, el, ClusterShape{2, 1, 2}, 8, opts)

	ctx := context.Background()
	sweep, err := p.RunSweep(ctx, sources, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the distinct sources against single runs; duplicate lanes
	// must match their first occurrence exactly.
	for _, src := range base {
		single, err := p.Run(ctx, src, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		for q, s := range sources {
			if s != src {
				continue
			}
			if sweep[q].Iterations != single.Iterations {
				t.Fatalf("lane %d (src %d): iterations %d, want %d", q, src, sweep[q].Iterations, single.Iterations)
			}
			for v := range single.Levels {
				if sweep[q].Levels[v] != single.Levels[v] {
					t.Fatalf("lane %d (src %d): level mismatch at %d", q, src, v)
				}
				if sweep[q].Parents[v] != single.Parents[v] {
					t.Fatalf("lane %d (src %d): parent mismatch at %d", q, src, v)
				}
			}
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	sources := pickSources(el.OutDegrees(), 9, 31)
	opts := DefaultOptions()
	opts.Compression = wire.ModeAdaptive
	p := buildTestPlan(t, el, ClusterShape{2, 1, 2}, 8, opts)
	ctx := context.Background()
	a, err := p.RunSweep(ctx, sources, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.RunSweep(ctx, sources, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	for q := range a {
		if a[q].SimSeconds != b[q].SimSeconds ||
			a[q].Wire.CompressedBytes != b[q].Wire.CompressedBytes ||
			a[q].EdgesScanned != b[q].EdgesScanned {
			t.Fatalf("query %d: nondeterministic sweep: %+v vs %+v", q, a[q], b[q])
		}
	}
	// Wire-accounting coherence under adaptive compression: the shared
	// traversal moves real record bytes, and the codec is charged at least
	// the sender-side fixed-width equivalent (receive-side decode adds
	// more). Note RawBytes can sit *below* CompressedBytes on small or
	// delegate-heavy graphs — per-block headers dominate near-empty record
	// blocks — so only the codec ≥ raw ordering is invariant.
	var raw, sent, codec int64
	for q := range a {
		raw += a[q].Wire.RawBytes
		sent += a[q].Wire.CompressedBytes
		codec += a[q].Wire.CodecBytes
	}
	if raw <= 0 || sent <= 0 || codec < raw {
		t.Fatalf("sweep wire accounting: raw=%d sent=%d codec=%d (want raw>0, sent>0, codec>=raw)", raw, sent, codec)
	}
}

// TestSweepDividesSchemeCounters: a sweep's scheme counters are shares of the
// sweep's blocks like its bytes, so summing its results counts each block
// once. K lanes of one source traverse exactly as one lane does and encode the
// same id blocks, so each lane reports the single lane's counts over K.
func TestSweepDividesSchemeCounters(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	src := pickSources(el.OutDegrees(), 1, 3)[0]
	opts := DefaultOptions()
	opts.Compression = wire.ModeAdaptive
	p := buildTestPlan(t, el, ClusterShape{2, 1, 2}, 8, opts)
	ctx := context.Background()
	one, err := p.RunSweep(ctx, []int64{src}, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	lanes, err := p.RunSweep(ctx, slices.Repeat([]int64{src}, k), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	w := one[0].Wire
	if w.SchemeRaw+w.SchemeDelta+w.SchemeBitmap == 0 {
		t.Fatal("the single-lane sweep encoded no blocks")
	}
	for q, r := range lanes {
		got := [3]int64{r.Wire.SchemeRaw, r.Wire.SchemeDelta, r.Wire.SchemeBitmap}
		if want := [3]int64{w.SchemeRaw / k, w.SchemeDelta / k, w.SchemeBitmap / k}; got != want {
			t.Fatalf("lane %d: schemes raw/delta/bitmap %v, want the single lane's %v over %d = %v", q, got,
				[3]int64{w.SchemeRaw, w.SchemeDelta, w.SchemeBitmap}, k, want)
		}
		if r.Exchange.Messages != one[0].Exchange.Messages/k {
			t.Fatalf("lane %d: %d messages, want %d over %d", q, r.Exchange.Messages, one[0].Exchange.Messages, k)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	el := gen.Path(16)
	p := buildTestPlan(t, el, ClusterShape{1, 1, 1}, 100, DefaultOptions())
	ctx := context.Background()
	if _, err := p.RunSweep(ctx, nil, Overrides{}); err == nil {
		t.Fatal("accepted empty source list")
	}
	if _, err := p.RunSweep(ctx, []int64{16}, Overrides{}); err == nil {
		t.Fatal("accepted out-of-range source")
	}
	if _, err := p.RunSweep(ctx, []int64{-1}, Overrides{}); err == nil {
		t.Fatal("accepted negative source")
	}
	big := make([]int64, MaxSweepWidth+1)
	if _, err := p.RunSweep(ctx, big, Overrides{}); err == nil {
		t.Fatal("accepted over-wide sweep")
	}
}

func TestSweepCancellation(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	sources := pickSources(el.OutDegrees(), 4, 5)
	p := buildTestPlan(t, el, ClusterShape{2, 1, 2}, 8, DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunSweep(ctx, sources, Overrides{}); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}

func TestSweepAmortizesWork(t *testing.T) {
	// The tentpole's point: K queries in one sweep scan far fewer structural
	// edges and move fewer per-query wire bytes than K independent runs.
	el := rmat.Generate(rmat.DefaultParams(10))
	sources := pickSources(el.OutDegrees(), 32, 77)
	opts := DefaultOptions()
	p := buildTestPlan(t, el, ClusterShape{2, 1, 2}, 8, opts)
	ctx := context.Background()
	sweep, err := p.RunSweep(ctx, sources, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	var sweepTime, singleTime float64
	for q, src := range sources {
		single, err := p.Run(ctx, src, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		sweepTime += sweep[q].SimSeconds
		singleTime += single.SimSeconds
	}
	if sweepTime >= singleTime {
		t.Fatalf("sweep did not amortize: %g s vs %g s for %d queries",
			sweepTime, singleTime, len(sources))
	}
}

// BenchmarkSweepResolve times the sweep's tree resolution and gather alone, on
// the rmat16-sweep workload's shape (RMAT 16, 4×2×2, the default 4n/p
// threshold, adaptive codec, K = 64): one traversal leaves its frontier
// history in the session, then every iteration re-resolves all 64 trees on the
// phase driver. It reports the host cost per (visited vertex, lane), the
// share of dd row entries the pass read (a lane-at-a-time resolver reads ~15
// |Edd|), the candidates the nd pass stored per visited (normal, lane) pair
// (an offer per nd edge stored 2.84; the first-hit rule stores at most one,
// and the benchmark fails above that), and what one whole RunSweep allocates.
func BenchmarkSweepResolve(b *testing.B) {
	el := rmat.Generate(rmat.DefaultParams(16))
	shape := ClusterShape{4, 2, 2}
	th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
	opts := DefaultOptions()
	opts.CollectParents = true
	opts.Compression = wire.ModeAdaptive
	plan := buildTestPlan(b, el, shape, th, opts)
	sources := pickSources(el.OutDegrees(), 64, 5)
	ctx := context.Background()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := plan.RunSweep(ctx, sources, Overrides{}); err != nil {
		b.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	e := plan.newSweepSession(opts, sources)
	e.outs = nil // traverse only
	if _, err := e.run(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.outs = e.newOuts()
		e.drv.reset(e.world)
		err := e.finishSweep()
		e.drv.stop()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var read, stores, visited, normalLanes int64
	for _, sc := range e.scratch {
		read += sc.tree.ddEdges
		stores += sc.tree.ndStores
	}
	for _, gs := range e.gpus {
		_, rows := gs.hist.level(0)
		normalLanes -= bitmask.RowCount(rows) // the sources have no parent
		normalLanes += bitmask.RowCount(gs.hist.rows)
	}
	for _, out := range e.outs {
		for _, l := range out.levels {
			if l >= 0 {
				visited++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(visited), "ns/vertex-lane")
	b.ReportMetric(float64(read)/float64(plan.sg.CountDD), "dd-read/|Edd|")
	ndPerPair := float64(stores) / float64(normalLanes)
	b.ReportMetric(ndPerPair, "nd-stores/normal-lane")
	if ndPerPair > 1 {
		b.Fatalf("the nd pass stored %.2f candidates per visited (normal, lane), want at most 1", ndPerPair)
	}
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc), "B/sweep")
}
