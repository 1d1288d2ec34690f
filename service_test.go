package gcbfs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// sameResult asserts two runs of the same query are bit-identical: levels,
// parents and every scalar the service reports.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Source != b.Source {
		t.Fatalf("%s: source %d vs %d", label, a.Source, b.Source)
	}
	if a.Iterations != b.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	if a.SimSeconds != b.SimSeconds {
		t.Fatalf("%s: sim seconds %v vs %v", label, a.SimSeconds, b.SimSeconds)
	}
	if a.EdgesScanned != b.EdgesScanned {
		t.Fatalf("%s: edges scanned %d vs %d", label, a.EdgesScanned, b.EdgesScanned)
	}
	if a.WireBytes != b.WireBytes || a.WireRawBytes != b.WireRawBytes {
		t.Fatalf("%s: wire accounting differs", label)
	}
	if (a.Levels == nil) != (b.Levels == nil) {
		t.Fatalf("%s: levels on one side only", label)
	}
	for v := range a.Levels {
		if a.Levels[v] != b.Levels[v] {
			t.Fatalf("%s: vertex %d level %d vs %d", label, v, a.Levels[v], b.Levels[v])
		}
	}
	if (a.Parents == nil) != (b.Parents == nil) {
		t.Fatalf("%s: parents on one side only", label)
	}
	for v := range a.Parents {
		if a.Parents[v] != b.Parents[v] {
			t.Fatalf("%s: vertex %d parent %d vs %d", label, v, a.Parents[v], b.Parents[v])
		}
	}
}

// TestServiceConcurrentMixedQueries is the concurrency acceptance check:
// 8+ simultaneous Service.Run calls with mixed per-query compression and
// exchange overrides, every result bit-identical to a serial reference run.
// Exercised under -race by the CI race job.
func TestServiceConcurrentMixedQueries(t *testing.T) {
	g := RMAT(11)
	// 4 ranks (power of two) so butterfly overrides run the real hypercube.
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1}))
	if err != nil {
		t.Fatal(err)
	}
	sources := Sources(g, 8, 42)
	type query struct {
		src  int64
		opts []QueryOption
	}
	compressions := []Compression{CompressionOff, CompressionAdaptive}
	exchanges := []Exchange{ExchangeAllPairs, ExchangeButterfly}
	queries := make([]query, 0, len(sources))
	for i, src := range sources {
		queries = append(queries, query{src: src, opts: []QueryOption{
			WithCompression(compressions[i%len(compressions)]),
			WithExchange(exchanges[i%len(exchanges)]),
			WithParents(true),
		}})
	}
	ctx := context.Background()

	serial := make([]*Result, len(queries))
	for i, q := range queries {
		if serial[i], err = svc.Run(ctx, q.src, q.opts...); err != nil {
			t.Fatal(err)
		}
	}

	concurrent := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q query) {
			defer wg.Done()
			concurrent[i], errs[i] = svc.Run(ctx, q.src, q.opts...)
		}(i, q)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("concurrent query %d: %v", i, errs[i])
		}
		sameResult(t, fmt.Sprintf("query %d", i), serial[i], concurrent[i])
	}
}

// TestRunBatchMatchesSerial is the batch acceptance check: RunBatch with
// Parallelism 8 produces levels AND parents bit-identical to a serial Run
// loop for every source, across compression × exchange modes.
func TestRunBatchMatchesSerial(t *testing.T) {
	g := RMAT(11)
	cfg := DefaultConfig(Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1})
	// A high degree threshold keeps most vertices normal, so the inter-rank
	// normal exchange — the traffic the codec knobs act on — carries real
	// volume and the codec-cost assertions below are not vacuous.
	cfg.Threshold = 64
	svc, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sources := Sources(g, 10, 7)
	ctx := context.Background()
	for _, comp := range []Compression{CompressionOff, CompressionAdaptive} {
		for _, ex := range []Exchange{ExchangeAllPairs, ExchangeButterfly} {
			label := fmt.Sprintf("comp=%d/ex=%d", comp, ex)
			opts := []QueryOption{WithCompression(comp), WithExchange(ex), WithParents(true)}
			serial := make([]*Result, len(sources))
			for i, src := range sources {
				if serial[i], err = svc.Run(ctx, src, opts...); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			batch, err := svc.RunBatch(ctx, sources, BatchOptions{Parallelism: 8}, opts...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(batch.Results) != len(sources) {
				t.Fatalf("%s: %d results, want %d", label, len(batch.Results), len(sources))
			}
			for i := range sources {
				sameResult(t, label, serial[i], batch.Results[i])
			}
			// Stats coherence against the per-query results.
			st := batch.Stats
			if st.Runs != len(sources) {
				t.Fatalf("%s: stats count %d runs, want %d", label, st.Runs, len(sources))
			}
			if geo := GeoMeanGTEPS(batch.Results); math.Abs(geo-st.GeoMeanGTEPS) > 1e-12*math.Abs(geo) {
				t.Fatalf("%s: stats geo-mean %v vs recomputed %v", label, st.GeoMeanGTEPS, geo)
			}
			var totalSim float64
			for _, r := range batch.Results {
				totalSim += r.SimSeconds
			}
			if math.Abs(totalSim-st.TotalSimSeconds) > 1e-15+1e-12*totalSim {
				t.Fatalf("%s: stats total sim %v vs recomputed %v", label, st.TotalSimSeconds, totalSim)
			}
			if st.TotalGTEPS <= 0 {
				t.Fatalf("%s: no aggregate throughput", label)
			}
			if st.WireRawBytes == 0 {
				t.Fatalf("%s: no normal-exchange traffic — codec assertions vacuous", label)
			}
			if comp == CompressionOff && st.CodecSeconds != 0 {
				t.Fatalf("%s: codec seconds %v with codec off", label, st.CodecSeconds)
			}
			if comp == CompressionAdaptive && st.CodecSeconds <= 0 {
				t.Fatalf("%s: no codec seconds with codec on", label)
			}
		}
	}
}

// TestServiceRunContext: a cancelled context surfaces as ctx.Err() from both
// Run and RunBatch.
func TestServiceRunContext(t *testing.T) {
	g := RMAT(10)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Run(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if _, err := svc.RunBatch(ctx, Sources(g, 3, 1), BatchOptions{Parallelism: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch err = %v, want context.Canceled", err)
	}
	// Deadline flavor.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer dcancel()
	if _, err := svc.Run(dctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEmptySourcesContract: with no sources, RunBatch and RunSweep answer
// alike — an empty, non-nil Results on a live context, and nil with the
// context's error on a cancelled one.
func TestEmptySourcesContract(t *testing.T) {
	svc, err := NewService(RMAT(8), DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []struct {
		name string
		run  func(context.Context) (*BatchResult, error)
	}{
		{"RunBatch", func(ctx context.Context) (*BatchResult, error) { return svc.RunBatch(ctx, nil, BatchOptions{}) }},
		{"RunSweep", func(ctx context.Context) (*BatchResult, error) { return svc.RunSweep(ctx, nil) }},
	} {
		for _, c := range []struct {
			name    string
			ctx     context.Context
			wantErr error
		}{
			{"live", context.Background(), nil},
			{"cancelled", cancelled, context.Canceled},
		} {
			br, err := m.run(c.ctx)
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("%s/%s: err = %v, want %v", m.name, c.name, err, c.wantErr)
			}
			switch {
			case c.wantErr != nil && br != nil:
				t.Fatalf("%s/%s: non-nil result %+v beside the error", m.name, c.name, br)
			case c.wantErr == nil && (br == nil || br.Results == nil || len(br.Results) != 0):
				t.Fatalf("%s/%s: result %+v, want an empty non-nil Results", m.name, c.name, br)
			}
		}
	}
}

// TestQueryOptionValidation rejects out-of-range per-query overrides.
func TestQueryOptionValidation(t *testing.T) {
	g := RMAT(10)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The retired forced modes' values (2–4) are refused like any other.
	for _, c := range []Compression{2, 3, 4, 99} {
		if _, err := svc.Run(ctx, 1, WithCompression(c)); err == nil {
			t.Fatalf("service accepted compression override %d", c)
		}
	}
	if _, err := svc.Run(ctx, 1, WithExchange(Exchange(-1))); err == nil {
		t.Fatal("service accepted an invalid exchange override")
	}
	// A butterfly override on a non-power-of-two rank count runs the
	// generalized (cleanup-hop) butterfly — no fallback exists anymore.
	svc3, err := NewService(g, DefaultConfig(Cluster{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 1}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc3.Run(ctx, 1, WithExchange(ExchangeButterfly))
	if err != nil {
		t.Fatal(err)
	}
	if res.Exchange != "butterfly" || res.AllPairsIterations != 0 {
		t.Fatalf("butterfly on 3 ranks: exchange %q with %d all-pairs iterations — want pure butterfly",
			res.Exchange, res.AllPairsIterations)
	}
	// The hybrid policy is a valid override too.
	if res, err = svc3.Run(ctx, 1, WithExchange(ExchangeHybrid)); err != nil {
		t.Fatal(err)
	} else if res.Exchange != "hybrid" {
		t.Fatalf("hybrid override reported exchange %q", res.Exchange)
	}
}

// TestBatchPoolObservability: a Parallelism-2, 8-source batch must reuse
// pooled sessions (hits > 0), allocate at most Parallelism fresh ones, and
// report a peak-in-flight within [1, Parallelism].
func TestBatchPoolObservability(t *testing.T) {
	g := RMAT(11)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}))
	if err != nil {
		t.Fatal(err)
	}
	sources := Sources(g, 8, 3)
	br, err := svc.RunBatch(context.Background(), sources, BatchOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := br.Stats
	if st.PoolHits <= 0 {
		t.Fatalf("pool hits = %d, want > 0 on an 8-source Parallelism-2 batch", st.PoolHits)
	}
	if st.PoolHits+st.PoolMisses != int64(len(sources)) {
		t.Fatalf("hits %d + misses %d != %d queries", st.PoolHits, st.PoolMisses, len(sources))
	}
	// sync.Pool keeps per-P free lists, so a worker hopping processors can
	// miss a session another P just returned — misses may exceed
	// Parallelism, but never reach the query count once recycling works.
	if st.PoolMisses < 1 || st.PoolMisses >= int64(len(sources)) {
		t.Fatalf("pool misses = %d, want within [1, %d)", st.PoolMisses, len(sources))
	}
	if st.PeakInFlight < 1 || st.PeakInFlight > 2 {
		t.Fatalf("peak in-flight = %d, want within [1, Parallelism=2]", st.PeakInFlight)
	}
	// A second batch over the warm pool must keep reusing sessions.
	br2, err := svc.RunBatch(context.Background(), sources, BatchOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if br2.Stats.PoolHits <= 0 {
		t.Fatalf("warm-pool batch hits = %d, want > 0", br2.Stats.PoolHits)
	}
	if br2.Stats.PoolHits+br2.Stats.PoolMisses != int64(len(sources)) {
		t.Fatalf("warm-pool hits %d + misses %d != %d queries",
			br2.Stats.PoolHits, br2.Stats.PoolMisses, len(sources))
	}
}

// TestSourcesShortGraph: fewer positive-degree vertices than requested must
// return the short list (ascending), not loop forever (the old bug).
func TestSourcesShortGraph(t *testing.T) {
	g := NewGraph(10)
	g.AddUndirectedEdge(1, 5)
	g.AddUndirectedEdge(5, 7)
	got := Sources(g, 8, 1)
	want := []int64{1, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("Sources returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sources returned %v, want %v", got, want)
		}
	}
	// Zero-edge graph: nothing eligible, nil result.
	if got := Sources(NewGraph(4), 2, 1); got != nil {
		t.Fatalf("Sources on an edgeless graph returned %v", got)
	}
	// Enough candidates: exact count, all positive degree, deterministic.
	big := RMAT(10)
	a, b := Sources(big, 6, 3), Sources(big, 6, 3)
	if len(a) != 6 {
		t.Fatalf("Sources returned %d vertices, want 6", len(a))
	}
	deg := big.OutDegrees()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sources nondeterministic for a fixed seed")
		}
		if deg[a[i]] == 0 {
			t.Fatalf("Sources picked zero-degree vertex %d", a[i])
		}
	}
}

// TestDegenerateGraphs pins the facade's answers on the smallest inputs, on
// every query path: an empty graph has no valid source, so Run, RunBatch and
// RunSweep return the out-of-range error (no panic); a one-vertex graph's
// source is its own root; an isolated source reaches nothing but itself.
func TestDegenerateGraphs(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2})
	cfg.CollectParents = true
	service := func(n int64) *Service {
		t.Helper()
		svc, err := NewService(NewGraph(n), cfg)
		if err != nil {
			t.Fatalf("NewService(NewGraph(%d)): %v", n, err)
		}
		return svc
	}
	// answers runs one source through every path, each answer in a result.
	answers := func(svc *Service, source int64) (map[string]*Result, error) {
		out := map[string]*Result{}
		r, err := svc.Run(ctx, source)
		if err != nil {
			return nil, fmt.Errorf("Run: %w", err)
		}
		out["Run"] = r
		br, err := svc.RunBatch(ctx, []int64{source}, BatchOptions{Parallelism: 2})
		if err != nil {
			return nil, fmt.Errorf("RunBatch: %w", err)
		}
		out["RunBatch"] = br.Results[0]
		if br, err = svc.RunSweep(ctx, []int64{source}); err != nil {
			return nil, fmt.Errorf("RunSweep: %w", err)
		}
		out["RunSweep"] = br.Results[0]
		return out, nil
	}

	empty := service(0)
	for _, src := range []int64{0, -1} {
		for name, err := range map[string]error{
			"Run":      func() error { _, err := empty.Run(ctx, src); return err }(),
			"RunBatch": func() error { _, err := empty.RunBatch(ctx, []int64{src}, BatchOptions{}); return err }(),
			"RunSweep": func() error { _, err := empty.RunSweep(ctx, []int64{src}); return err }(),
		} {
			if err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("empty graph, %s from %d: err = %v, want the out-of-range error", name, src, err)
			}
		}
	}

	for _, c := range []struct {
		n, source int64
		levels    []int32
		parents   []int64
	}{
		{1, 0, []int32{0}, []int64{0}},
		{2, 1, []int32{-1, 0}, []int64{-1, 1}},
	} {
		got, err := answers(service(c.n), c.source)
		if err != nil {
			t.Fatalf("NewGraph(%d) from %d: %v", c.n, c.source, err)
		}
		for name, r := range got {
			if !slices.Equal(r.Levels, c.levels) || !slices.Equal(r.Parents, c.parents) {
				t.Errorf("NewGraph(%d), %s from %d: levels %v parents %v, want %v %v",
					c.n, name, c.source, r.Levels, r.Parents, c.levels, c.parents)
			}
		}
	}
}

// TestNewServiceRejectsOutOfRangeEdge: an endpoint outside [0, n) is the
// caller's input and comes back as an error from both constructors — it used
// to die in EdgeList.OutDegrees with an index panic, and the build now runs
// on worker goroutines, where a panic is beyond the caller's recover.
func TestNewServiceRejectsOutOfRangeEdge(t *testing.T) {
	g := NewGraph(8)
	g.AddUndirectedEdge(0, 1)
	g.AddUndirectedEdge(3, 99)
	cfg := DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2})
	if _, err := NewService(g, cfg); err == nil {
		t.Error("NewService accepted an edge to vertex 99 of 8")
	}
	if _, err := NewMutableService(g, cfg); err == nil {
		t.Error("NewMutableService accepted an edge to vertex 99 of 8")
	}
}
