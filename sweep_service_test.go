package gcbfs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// sameTraversal asserts the parts of two results a shared sweep must keep
// bit-identical to independent runs: source, iteration count, levels and
// parents. (Sweep counters and simulated time are per-query shares of the
// sweep totals, so sameResult's scalar checks do not apply.)
func sameTraversal(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Source != want.Source {
		t.Fatalf("%s: source %d, want %d", label, got.Source, want.Source)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d, want %d", label, got.Iterations, want.Iterations)
	}
	if (got.Levels == nil) != (want.Levels == nil) {
		t.Fatalf("%s: levels on one side only", label)
	}
	for v := range want.Levels {
		if got.Levels[v] != want.Levels[v] {
			t.Fatalf("%s: vertex %d level %d, want %d", label, v, got.Levels[v], want.Levels[v])
		}
	}
	if (got.Parents == nil) != (want.Parents == nil) {
		t.Fatalf("%s: parents on one side only", label)
	}
	for v := range want.Parents {
		if got.Parents[v] != want.Parents[v] {
			t.Fatalf("%s: vertex %d parent %d, want %d", label, v, got.Parents[v], want.Parents[v])
		}
	}
}

// TestRunSweepMatchesSerial is the tentpole acceptance check at the service
// layer: one shared sweep answers every query with levels and parents
// bit-identical to independent Run calls, across compression modes.
func TestRunSweepMatchesSerial(t *testing.T) {
	g := RMAT(11)
	for _, comp := range []Compression{CompressionOff, CompressionAdaptive} {
		cfg := DefaultConfig(Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1})
		svc, err := NewService(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sources := Sources(g, 12, 9)
		opts := []QueryOption{WithCompression(comp), WithParents(true)}
		ctx := context.Background()
		br, err := svc.RunSweep(ctx, sources, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(sources) {
			t.Fatalf("comp=%d: %d results, want %d", comp, len(br.Results), len(sources))
		}
		var sweepSim float64
		for i, src := range sources {
			serial, err := svc.Run(ctx, src, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sameTraversal(t, fmt.Sprintf("comp=%d src=%d", comp, src), serial, br.Results[i])
			sweepSim += br.Results[i].SimSeconds
		}
		if br.Stats.Runs != len(sources) {
			t.Fatalf("comp=%d: stats count %d runs, want %d", comp, br.Stats.Runs, len(sources))
		}
		if br.Stats.TotalGTEPS <= 0 || br.Stats.TotalSimSeconds <= 0 {
			t.Fatalf("comp=%d: missing aggregate throughput: %+v", comp, br.Stats)
		}
	}
}

// TestRunSweepChunksWideBatches: a batch wider than SweepWidth splits into
// successive sweeps and still answers every query correctly.
func TestRunSweepChunksWideBatches(t *testing.T) {
	g := RMAT(10)
	cfg := DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1})
	cfg.SweepWidth = 4
	svc, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sources := Sources(g, 10, 21)
	ctx := context.Background()
	br, err := svc.RunSweep(ctx, sources, WithParents(true))
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range sources {
		serial, err := svc.Run(ctx, src, WithParents(true))
		if err != nil {
			t.Fatal(err)
		}
		sameTraversal(t, fmt.Sprintf("src=%d", src), serial, br.Results[i])
	}
}

// TestSweepDuplicateSources: duplicate sources in RunSweep and RunBatch are
// traversed once but every request gets its own result copy — mutating one
// caller's slices must not leak into another's.
func TestSweepDuplicateSources(t *testing.T) {
	g := RMAT(10)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}))
	if err != nil {
		t.Fatal(err)
	}
	base := Sources(g, 3, 5)
	sources := []int64{base[0], base[1], base[0], base[2], base[0], base[1]}
	ctx := context.Background()
	for name, run := range map[string]func() (*BatchResult, error){
		"sweep": func() (*BatchResult, error) {
			return svc.RunSweep(ctx, sources, WithParents(true))
		},
		"batch": func() (*BatchResult, error) {
			return svc.RunBatch(ctx, sources, BatchOptions{Parallelism: 2}, WithParents(true))
		},
	} {
		br, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(br.Results) != len(sources) {
			t.Fatalf("%s: %d results for %d requests", name, len(br.Results), len(sources))
		}
		if br.Stats.Runs != len(sources) {
			t.Fatalf("%s: stats count %d runs, want %d (duplicates included)", name, br.Stats.Runs, len(sources))
		}
		for i, src := range sources {
			serial, err := svc.Run(ctx, src, WithParents(true))
			if err != nil {
				t.Fatal(err)
			}
			sameTraversal(t, fmt.Sprintf("%s lane %d", name, i), serial, br.Results[i])
		}
		// Lanes 0, 2 and 4 answered the same source; corrupt lane 0's
		// slices and check the copies stand alone.
		br.Results[0].Levels[0] = -99
		if br.Results[4].Parents != nil {
			br.Results[0].Parents[0] = -99
		}
		if br.Results[2].Levels[0] == -99 || br.Results[4].Levels[0] == -99 {
			t.Fatalf("%s: duplicate-source results share a Levels slice", name)
		}
		if br.Results[2].Parents[0] == -99 || br.Results[4].Parents[0] == -99 {
			t.Fatalf("%s: duplicate-source results share a Parents slice", name)
		}
	}
}

// TestSweepWidthValidation: NewService rejects out-of-range widths; zero
// selects the default.
func TestSweepWidthValidation(t *testing.T) {
	g := RMAT(9)
	cl := Cluster{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 1}
	for _, bad := range []int{-1, 1025, 99999} {
		cfg := DefaultConfig(cl)
		cfg.SweepWidth = bad
		if _, err := NewService(g, cfg); err == nil {
			t.Fatalf("NewService accepted SweepWidth=%d", bad)
		}
	}
	cfg := DefaultConfig(cl)
	if w := cfg.sweepWidth(); w != DefaultSweepWidth {
		t.Fatalf("zero SweepWidth resolved to %d, want %d", w, DefaultSweepWidth)
	}
	cfg.SweepWidth = 7
	if w := cfg.sweepWidth(); w != 7 {
		t.Fatalf("explicit SweepWidth resolved to %d", w)
	}
}

// TestCoalescedRunsBitIdentical is the -race property check: with
// CoalesceQueries on, concurrent option-free Run calls — including calls
// admitted while a sweep is already in flight — coalesce into shared sweeps
// and return levels bit-identical to a plain serial service.
func TestCoalescedRunsBitIdentical(t *testing.T) {
	g := RMAT(11)
	cl := Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1}

	plain, err := NewService(g, DefaultConfig(cl))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cl)
	cfg.CoalesceQueries = true
	cfg.SweepWidth = 8
	svc, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	base := Sources(g, 8, 13)
	// 32 requests over 8 distinct sources: duplicates land in the same
	// sweep lane and later arrivals coalesce into follow-up sweeps.
	queries := make([]int64, 32)
	for i := range queries {
		queries[i] = base[i%len(base)]
	}
	serial := make(map[int64]*Result, len(base))
	ctx := context.Background()
	for _, src := range base {
		if serial[src], err = plain.Run(ctx, src); err != nil {
			t.Fatal(err)
		}
	}

	results := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, src := range queries {
		wg.Add(1)
		go func(i int, src int64) {
			defer wg.Done()
			results[i], errs[i] = svc.Run(ctx, src)
		}(i, src)
	}
	wg.Wait()
	for i, src := range queries {
		if errs[i] != nil {
			t.Fatalf("coalesced query %d: %v", i, errs[i])
		}
		sameTraversal(t, fmt.Sprintf("coalesced query %d", i), serial[src], results[i])
	}
}
