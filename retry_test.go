package gcbfs

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"gcbfs/internal/faults"
	"gcbfs/internal/metrics"
	"gcbfs/internal/wire"
)

// chaosConfig is the standard fault-tolerance test configuration: the
// default config (compression off — every message is checksummed whatever the
// mode) with parents collected so recovery can assert full bit-identity.
func chaosConfig(c Cluster) Config {
	cfg := DefaultConfig(c)
	cfg.CollectParents = true
	return cfg
}

// TestRetryRecoversFromTransientFaults sweeps injector seeds until retried
// queries recover, and asserts every recovery is bit-identical to the
// fault-free run while every failure is fault-typed.
func TestRetryRecoversFromTransientFaults(t *testing.T) {
	g := RMAT(10)
	cluster := Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	clean, err := NewService(g, chaosConfig(cluster))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := clean.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}

	recovered := 0
	for seed := uint64(1); seed <= 24; seed++ {
		cfg := chaosConfig(cluster)
		cfg.Inject = faults.New(seed, faults.KindCorrupt, 0.3)
		cfg.Retry = RetryPolicy{MaxAttempts: 8}
		svc, err := NewService(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := svc.Run(context.Background(), 0)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("seed %d: untyped failure escaped containment: %v", seed, err)
			}
			continue
		}
		if r.Attempts < 1 {
			t.Fatalf("seed %d: successful run reports %d attempts", seed, r.Attempts)
		}
		if r.Attempts > 1 {
			recovered++
			st := svc.FaultStats()
			if st.Retries == 0 || st.Injected == 0 {
				t.Fatalf("seed %d: recovery after %d attempts but stats %+v", seed, r.Attempts, st)
			}
		}
		for v := range ref.Levels {
			if r.Levels[v] != ref.Levels[v] {
				t.Fatalf("seed %d: vertex %d level %d, fault-free %d — recovery silently wrong",
					seed, v, r.Levels[v], ref.Levels[v])
			}
			if r.Parents[v] != ref.Parents[v] {
				t.Fatalf("seed %d: vertex %d parent %d, fault-free %d — recovery silently wrong",
					seed, v, r.Parents[v], ref.Parents[v])
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no seed recovered after a retry — the retry path was never exercised")
	}
}

// TestRetryExhaustionSurfacesTypedError: a rate-1 fault burns the whole
// attempt budget and surfaces as a typed error with the counters to match.
func TestRetryExhaustionSurfacesTypedError(t *testing.T) {
	g := RMAT(9)
	cfg := chaosConfig(Cluster{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2})
	cfg.Inject = faults.New(1, faults.KindCorrupt, 1)
	cfg.Retry = RetryPolicy{MaxAttempts: 3}
	svc, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := svc.Run(context.Background(), 0)
	if err == nil {
		t.Fatal("rate-1 corruption survived the attempt budget")
	}
	if r != nil {
		t.Fatal("partial result escaped alongside the error")
	}
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("error not wire.ErrCorrupt-typed: %v", err)
	}
	st := svc.FaultStats()
	if st.Retries != 2 || st.Exhausted != 1 {
		t.Fatalf("stats %+v, want 2 retries and 1 exhaustion", st)
	}
	if st.Injected == 0 {
		t.Fatal("exhausted the budget with zero recorded injections")
	}
}

// TestRetryDegradation: with DegradeAfter 1 every recovery beyond the first
// attempt must have run the degraded profile — all-pairs on every iteration,
// though the service is configured for the butterfly — and still match
// bit-identically.
func TestRetryDegradation(t *testing.T) {
	g := RMAT(10)
	cluster := Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	for _, compression := range []Compression{CompressionOff, CompressionAdaptive} {
		t.Run(compression.mode().String(), func(t *testing.T) {
			base := chaosConfig(cluster)
			base.Compression = compression
			clean, err := NewService(g, base)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := clean.Run(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			degradedRecoveries := 0
			for seed := uint64(1); seed <= 24; seed++ {
				cfg := base
				cfg.Exchange = ExchangeButterfly
				cfg.Inject = faults.New(seed, faults.KindCorrupt, 0.3)
				cfg.Retry = RetryPolicy{MaxAttempts: 8, DegradeAfter: 1}
				svc, err := NewService(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				r, err := svc.Run(context.Background(), 0)
				if err != nil || r.Attempts == 1 {
					continue
				}
				if !r.Degraded {
					t.Fatalf("seed %d: recovery on attempt %d with DegradeAfter 1 did not degrade", seed, r.Attempts)
				}
				if st := svc.FaultStats(); st.Degraded == 0 {
					t.Fatalf("seed %d: degraded recovery but stats %+v", seed, st)
				}
				if r.ButterflyIterations != 0 || r.AllPairsIterations != int64(r.Iterations) {
					t.Fatalf("seed %d: degraded recovery ran %d butterfly / %d all-pairs of %d iterations — the profile is all-pairs",
						seed, r.ButterflyIterations, r.AllPairsIterations, r.Iterations)
				}
				degradedRecoveries++
				for v := range ref.Levels {
					if r.Levels[v] != ref.Levels[v] || r.Parents[v] != ref.Parents[v] {
						t.Fatalf("seed %d: degraded recovery diverged at vertex %d", seed, v)
					}
				}
			}
			if degradedRecoveries == 0 {
				t.Fatal("no seed recovered on the degraded profile")
			}
		})
	}
}

// TestZeroRetryPolicyIsSingleAttempt: the zero policy keeps the pre-retry
// contract — one attempt, typed error straight to the caller.
func TestZeroRetryPolicyIsSingleAttempt(t *testing.T) {
	g := RMAT(9)
	cfg := chaosConfig(Cluster{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2})
	cfg.Inject = faults.New(3, faults.KindCrash, 1)
	svc, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Run(context.Background(), 0)
	if err == nil {
		t.Fatal("rate-1 crash succeeded without retries")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error not faults.ErrInjected-typed: %v", err)
	}
	if st := svc.FaultStats(); st.Retries != 0 {
		t.Fatalf("zero policy retried: %+v", st)
	}
}

// TestQueryTimeout: Config.QueryTimeout bounds the whole query and surfaces
// as context.DeadlineExceeded — final, never retried.
func TestQueryTimeout(t *testing.T) {
	g := RMAT(10)
	cfg := chaosConfig(Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2})
	cfg.QueryTimeout = time.Nanosecond
	cfg.Retry = RetryPolicy{MaxAttempts: 5}
	svc, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Run(context.Background(), 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	st := svc.FaultStats()
	if st.Timeouts == 0 {
		t.Fatalf("timeout not counted: %+v", st)
	}
	if st.Retries != 0 {
		t.Fatalf("query-level deadline was retried: %+v", st)
	}
}

// TestAttemptTimeout: RetryPolicy.AttemptTimeout bounds one attempt, not the
// query — an expired attempt is retried like a contained fault until the
// budget runs out — while the query-level deadline stays final and is the
// only thing FaultStats.Timeouts counts, even when it lands in a backoff.
func TestAttemptTimeout(t *testing.T) {
	g := RMAT(10)
	for _, tc := range []struct {
		name         string
		retry        RetryPolicy
		queryTimeout time.Duration
		want         metrics.FaultStats
	}{
		{"expired attempts are retried", RetryPolicy{MaxAttempts: 3, AttemptTimeout: time.Nanosecond}, 0,
			metrics.FaultStats{Retries: 2, Exhausted: 1}},
		{"query deadline is final", RetryPolicy{MaxAttempts: 3, AttemptTimeout: time.Nanosecond, Backoff: time.Hour}, 50 * time.Millisecond,
			metrics.FaultStats{Retries: 1, Timeouts: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chaosConfig(Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2})
			cfg.Retry = tc.retry
			cfg.QueryTimeout = tc.queryTimeout
			svc, err := NewService(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Run(context.Background(), 0); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if st := svc.FaultStats(); st != tc.want {
				t.Fatalf("stats %+v, want %+v", st, tc.want)
			}
		})
	}
}

// TestWithDeadlineOverride: the per-query deadline overrides the service
// default in both directions.
func TestWithDeadlineOverride(t *testing.T) {
	g := RMAT(10)
	cfg := chaosConfig(Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2})
	svc, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Run(context.Background(), 0, WithDeadline(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// A generous per-query deadline rescues a service configured with an
	// impossible default.
	cfg.QueryTimeout = time.Nanosecond
	tight, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tight.Run(context.Background(), 0, WithDeadline(time.Minute)); err != nil {
		t.Fatalf("per-query deadline did not override the service default: %v", err)
	}
}

// TestSweepRetry: RunSweep retries per chunk and stamps the attempt counts.
func TestSweepRetry(t *testing.T) {
	g := RMAT(10)
	cluster := Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	sources := []int64{0, 1, 2, 3}
	clean, err := NewService(g, chaosConfig(cluster))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := clean.RunSweep(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 24; seed++ {
		cfg := chaosConfig(cluster)
		cfg.Inject = faults.New(seed, faults.KindCorrupt, 0.08)
		cfg.Retry = RetryPolicy{MaxAttempts: 8}
		svc, err := NewService(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		br, err := svc.RunSweep(context.Background(), sources)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("seed %d: untyped sweep failure: %v", seed, err)
			}
			continue
		}
		for i, r := range br.Results {
			if r.Attempts <= 1 {
				continue
			}
			for v := range ref.Results[i].Levels {
				if r.Levels[v] != ref.Results[i].Levels[v] {
					t.Fatalf("seed %d: sweep recovery diverged at source %d vertex %d", seed, sources[i], v)
				}
			}
			return // one verified retried sweep is the point
		}
	}
	t.Fatal("no sweep recovered after a retry across 24 seeds")
}

// TestSweepRetryDegradation is TestRetryDegradation's sweep twin: a sweep
// follows the service's butterfly, and one that recovers with DegradeAfter 1
// ran the degraded profile — all-pairs on every superstep — and answers with
// the clean sweep's trees.
func TestSweepRetryDegradation(t *testing.T) {
	g := RMAT(10)
	ctx := context.Background()
	sources := []int64{0, 1, 2, 3}
	base := chaosConfig(Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2})
	base.Exchange = ExchangeButterfly
	clean, err := NewService(g, base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := clean.RunSweep(ctx, sources)
	if err != nil {
		t.Fatal(err)
	}
	if r := ref.Results[0]; r.ButterflyIterations == 0 || r.AllPairsIterations != 0 {
		t.Fatalf("the clean sweep ran %d butterfly / %d all-pairs supersteps on a butterfly service", r.ButterflyIterations, r.AllPairsIterations)
	}
	for seed := uint64(1); seed <= 24; seed++ {
		cfg := base
		cfg.Inject = faults.New(seed, faults.KindCorrupt, 0.05).WithSites(faults.SiteSweep)
		cfg.Retry = RetryPolicy{MaxAttempts: 8, DegradeAfter: 1}
		svc, err := NewService(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		br, err := svc.RunSweep(ctx, sources)
		if err != nil || br.Results[0].Attempts == 1 {
			continue
		}
		for i, r := range br.Results {
			if !r.Degraded || r.ButterflyIterations != 0 || r.AllPairsIterations == 0 {
				t.Fatalf("seed %d: recovery on attempt %d: degraded %v, %d butterfly / %d all-pairs supersteps — the profile is all-pairs",
					seed, r.Attempts, r.Degraded, r.ButterflyIterations, r.AllPairsIterations)
			}
			if !slices.Equal(r.Levels, ref.Results[i].Levels) || !slices.Equal(r.Parents, ref.Results[i].Parents) {
				t.Fatalf("seed %d: degraded sweep recovery diverged at source %d", seed, sources[i])
			}
		}
		if st := svc.FaultStats(); st.Degraded == 0 {
			t.Fatalf("seed %d: degraded recovery but stats %+v", seed, st)
		}
		return
	}
	t.Fatal("no sweep recovered on the degraded profile across 24 seeds")
}

// TestRepairRetry: a Repair whose patch rounds are corrupted is retried from
// the same prior — which a repair only reads, and copies afresh per attempt —
// and every recovery is bit-identical to the fault-free repair, every failure
// fault-typed.
func TestRepairRetry(t *testing.T) {
	g := RMAT(10)
	cluster := Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	ctx := context.Background()
	d, err := SynthesizeDelta(g, 0.01, "mixed", 3)
	if err != nil {
		t.Fatal(err)
	}
	// repair runs the source's prior fault-free on epoch 1, arms the injector
	// (nil: never) and repairs across d on epoch 2.
	repair := func(in *faults.Injector) (*Result, error) {
		cfg := chaosConfig(cluster)
		cfg.Threshold = 16
		cfg.Retry = RetryPolicy{MaxAttempts: 8}
		clean, err := NewMutableService(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prior, err := clean.Run(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Inject = in
		m, err := NewMutableService(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		levels, parents := slices.Clone(prior.Levels), slices.Clone(prior.Parents)
		r, err := m.Repair(ctx, prior, d)
		if !slices.Equal(prior.Levels, levels) || !slices.Equal(prior.Parents, parents) {
			t.Fatal("Repair wrote into its prior result")
		}
		return r, err
	}
	ref, err := repair(nil)
	if err != nil {
		t.Fatal(err)
	}

	recovered := 0
	for seed := uint64(1); seed <= 24; seed++ {
		r, err := repair(faults.New(seed, faults.KindCorrupt, 0.3).WithSites(faults.SiteParents))
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("seed %d: untyped failure escaped containment: %v", seed, err)
			}
			continue
		}
		if r.Attempts > 1 {
			recovered++
		}
		for v := range ref.Levels {
			if r.Levels[v] != ref.Levels[v] || r.Parents[v] != ref.Parents[v] {
				t.Fatalf("seed %d: vertex %d is (%d, %d) after %d attempts, fault-free (%d, %d)",
					seed, v, r.Levels[v], r.Parents[v], r.Attempts, ref.Levels[v], ref.Parents[v])
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no seed recovered after a retry — the patch rounds were never retried")
	}
}
