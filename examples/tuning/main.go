// Tuning scenario (paper §VI-B, Fig. 8): how the optimization options —
// direction optimization (DO), Local-All2All (L), Uniquify (U), and
// blocking vs non-blocking delegate reduction (BR/IR) — change the runtime
// composition on a multi-node cluster, plus a mini weak-scaling sweep, an
// exchange-policy comparison (all-pairs vs butterfly vs the per-iteration
// hybrid) and a multi-source sweep-width comparison. Each variant stands up a
// query service and answers its sources as one concurrent batch.
package main

import (
	"context"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"gcbfs"
	"gcbfs/internal/bench"
	"gcbfs/internal/faults"
)

func main() {
	g := gcbfs.RMAT(14)
	cluster := gcbfs.Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}
	sources := gcbfs.Sources(g, 4, 11)
	ctx := context.Background()

	fmt.Printf("options ablation on %d GPUs (RMAT scale 14):\n", cluster.GPUs())
	fmt.Println("  options      compute   local  normal  delegate  elapsed   (ms)")
	type variant struct {
		name string
		mod  func(*gcbfs.Config)
	}
	variants := []variant{
		{"BFS+BR", func(c *gcbfs.Config) { c.DirectionOptimized = false }},
		{"DO+BR", func(c *gcbfs.Config) {}},
		{"DO+IR", func(c *gcbfs.Config) { c.BlockingReduce = false }},
		{"DO+L+BR", func(c *gcbfs.Config) { c.LocalAll2All = true }},
		{"DO+L+U+BR", func(c *gcbfs.Config) { c.LocalAll2All = true; c.Uniquify = true }},
	}
	for _, v := range variants {
		cfg := gcbfs.DefaultConfig(cluster)
		v.mod(&cfg)
		svc, err := gcbfs.NewService(g, cfg)
		if err != nil {
			log.Fatal(err)
		}
		batch, err := svc.RunBatch(ctx, sources, gcbfs.BatchOptions{Parallelism: 2})
		if err != nil {
			log.Fatal(err)
		}
		var comp, local, normal, delegate, elapsed float64
		for _, r := range batch.Results {
			comp += r.Computation
			local += r.LocalComm
			normal += r.RemoteNormal
			delegate += r.RemoteDelegate
			elapsed += r.SimSeconds
		}
		n := float64(len(batch.Results))
		fmt.Printf("  %-10s  %7.3f %7.3f %7.3f  %8.3f  %7.3f\n",
			v.name, comp/n*1e3, local/n*1e3, normal/n*1e3, delegate/n*1e3, elapsed/n*1e3)
	}

	// U and the codec. With compression off the exchange ships what the
	// kernels binned and U is what removes the repeats, for the price of its
	// kernel. With a codec active the exchange carries sets anyway — the
	// staging sort exposes the repeats and they are dropped there, at every
	// butterfly relay and on arrival — so U moves where a duplicate is
	// dropped, not what is sent: same wire bytes, only its kernel's time on
	// top.
	fmt.Println("\nuniquify × codec (same cluster, wire kB per query):")
	fmt.Println("  compression  U    raw kB  wire kB  compute ms")
	for _, codec := range []struct {
		name string
		mode gcbfs.Compression
	}{{"off", gcbfs.CompressionOff}, {"adaptive", gcbfs.CompressionAdaptive}} {
		for _, u := range []bool{false, true} {
			cfg := gcbfs.DefaultConfig(cluster)
			cfg.Compression, cfg.Uniquify = codec.mode, u
			svc, err := gcbfs.NewService(g, cfg)
			if err != nil {
				log.Fatal(err)
			}
			batch, err := svc.RunBatch(ctx, sources, gcbfs.BatchOptions{Parallelism: 2})
			if err != nil {
				log.Fatal(err)
			}
			var comp float64
			for _, r := range batch.Results {
				comp += r.Computation
			}
			n := float64(len(batch.Results))
			fmt.Printf("  %-11s  %-3s  %6.1f  %7.1f  %10.3f\n", codec.name, onOff(u),
				float64(batch.Stats.WireRawBytes)/n/1e3, float64(batch.Stats.WireBytes)/n/1e3, comp/n*1e3)
		}
	}

	// Exchange policy: all-pairs sends p−1 messages per rank per iteration,
	// the butterfly ~log2(p) aggregated hops (any rank count — 6 ranks here
	// exercises the cleanup hops), and the hybrid picks per iteration from
	// the known frontier volume: butterfly on the latency-bound head and
	// tail of the BFS, all-pairs where volume dominates. Results are
	// bit-identical across all three; only messages and simulated time move.
	fmt.Println("\nexchange policy on 6 ranks (RMAT scale 14, per-query override):")
	fmt.Println("  policy     iters ap/bf  messages  remote-normal  elapsed   (ms)")
	xcluster := gcbfs.Cluster{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}
	xsvc, err := gcbfs.NewService(g, gcbfs.DefaultConfig(xcluster))
	if err != nil {
		log.Fatal(err)
	}
	for _, x := range []struct {
		name   string
		policy gcbfs.Exchange
	}{
		{"allpairs", gcbfs.ExchangeAllPairs},
		{"butterfly", gcbfs.ExchangeButterfly},
		{"hybrid", gcbfs.ExchangeHybrid},
	} {
		batch, err := xsvc.RunBatch(ctx, sources, gcbfs.BatchOptions{Parallelism: 2},
			gcbfs.WithExchange(x.policy))
		if err != nil {
			log.Fatal(err)
		}
		var remote, elapsed float64
		for _, r := range batch.Results {
			remote += r.RemoteNormal
			elapsed += r.SimSeconds
		}
		n := float64(len(batch.Results))
		fmt.Printf("  %-9s  %5d/%-5d  %8d  %13.3f  %7.3f\n",
			x.name, batch.Stats.AllPairsIterations, batch.Stats.ButterflyIterations,
			batch.Stats.Messages, remote/n*1e3, elapsed/n*1e3)
	}

	// Multi-source shared sweep (MS-BFS, RunSweep): K queries answered by
	// ONE BSP traversal — per-vertex visited state widens to a K-query
	// bitmask riding the record codec — so the graph is scanned once per
	// sweep instead of once per query. Config.SweepWidth caps how many
	// queries share a traversal (requests beyond it are chunked into
	// consecutive sweeps); wider sweeps amortize traversal cost over more
	// queries at ⌈K/64⌉ extra mask words per record. Levels and parents are
	// bit-identical to independent runs; per-query rates are sweep shares.
	// The batch row is the same 64 sources as independent traversals.
	fmt.Println("\nmulti-source sweep width on 6 ranks (64 sources, adaptive codec):")
	fmt.Println("  mode        width  traversals  ms/query  gteps/query")
	msources := gcbfs.Sources(g, 64, 17)
	mbatch, err := xsvc.RunBatch(ctx, msources, gcbfs.BatchOptions{Parallelism: 4},
		gcbfs.WithCompression(gcbfs.CompressionAdaptive))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-10s  %5s  %10d  %8.3f  %11.3f\n", "batch", "-",
		len(msources), mbatch.Stats.TotalSimSeconds/float64(mbatch.Stats.Runs)*1e3,
		mbatch.Stats.TotalGTEPS)
	for _, width := range []int{8, 32, 64} {
		cfg := gcbfs.DefaultConfig(xcluster)
		cfg.SweepWidth = width
		ssvc, err := gcbfs.NewService(g, cfg)
		if err != nil {
			log.Fatal(err)
		}
		sweep, err := ssvc.RunSweep(ctx, msources,
			gcbfs.WithCompression(gcbfs.CompressionAdaptive))
		if err != nil {
			log.Fatal(err)
		}
		traversals := (len(msources) + width - 1) / width
		fmt.Printf("  %-10s  %5d  %10d  %8.3f  %11.3f\n", "sweep", width,
			traversals, sweep.Stats.TotalSimSeconds/float64(sweep.Stats.Runs)*1e3,
			sweep.Stats.TotalGTEPS)
	}

	fmt.Println("\nmini weak scaling (scale-12 RMAT per GPU, DOBFS):")
	fmt.Println("  GPUs  layout  geo-mean GTEPS")
	for _, gpus := range []int{1, 4, 16} {
		scale := 12
		for g := 1; g < gpus; g *= 2 {
			scale++
		}
		wg := gcbfs.RMAT(scale)
		var c gcbfs.Cluster
		switch gpus {
		case 1:
			c = gcbfs.Cluster{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 1}
		case 4:
			c = gcbfs.Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}
		default:
			c = gcbfs.Cluster{Nodes: gpus / 4, RanksPerNode: 2, GPUsPerRank: 2}
		}
		svc, err := gcbfs.NewService(wg, gcbfs.DefaultConfig(c))
		if err != nil {
			log.Fatal(err)
		}
		batch, err := svc.RunBatch(ctx, gcbfs.Sources(wg, 3, 5), gcbfs.BatchOptions{Parallelism: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4d  %d×%d×%d  %10.3f\n",
			gpus, c.Nodes, c.RanksPerNode, c.GPUsPerRank, batch.Stats.GeoMeanGTEPS)
	}
	// Reading the benchmark trajectory. Every PR commits a BENCH_<pr>.json
	// at the repo root (go run ./cmd/bfsbench -json BENCH_<pr>.json -quick);
	// CI regenerates the quick suite and diffs it against the latest one, so
	// the numbers below are enforced, not decorative. Per cell key
	// (experiment[/sScale][/rRanks][/config]/metric):
	//
	//	gteps               traversed edges per second across the batch. The
	//	                    simulation is deterministic, so the −5% tolerance
	//	                    only absorbs deliberate timing-model changes; a
	//	                    real slowdown fails CI.
	//	wire_bytes          total compressed bytes on the simulated wire.
	//	                    Exact — a pure function of the codec and pinned
	//	                    inputs, so any drift is a codec bug or a format
	//	                    change that must regenerate the baseline.
	//	hidden_codec_ratio  fraction of codec compute the hop pipeline hid
	//	                    under transfers (−10%: less overlap = regression).
	//	policy_error        |predicted − actual| / actual of the hybrid cost
	//	                    model (+25%: small base, widest band).
	//	allocs_per_query    heap allocations per query at Parallelism 1 and 8
	//	bytes_per_query     (+10%: ReadMemStats noise; falling is free).
	// Fault tolerance: arm the deterministic chaos injector (corrupt bit
	// flips on the simulated wire, caught by the adaptive codec's CRC) and
	// let the retry policy re-execute contained failures — degrading to the
	// all-pairs exchange after two failed attempts. Every recovery is
	// bit-identical to the fault-free run; an exhausted budget surfaces as a
	// typed error, never a silently wrong result. The full ablation is
	// cmp8: go run ./cmd/bfsbench -exp cmp8.
	fmt.Println("\nfault injection + retry (corrupt@0.05, adaptive codec, 8-attempt budget, degrade after 2):")
	fmt.Println("  seed  injected  attempts  degraded  outcome")
	chaosRef, err := func() (*gcbfs.Result, error) {
		cfg := gcbfs.DefaultConfig(cluster)
		cfg.Compression = gcbfs.CompressionAdaptive
		svc, err := gcbfs.NewService(g, cfg)
		if err != nil {
			return nil, err
		}
		return svc.Run(ctx, sources[0])
	}()
	if err != nil {
		log.Fatal(err)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := gcbfs.DefaultConfig(cluster)
		cfg.Compression = gcbfs.CompressionAdaptive
		cfg.Inject = faults.New(seed, faults.KindCorrupt, 0.05)
		cfg.Retry = gcbfs.RetryPolicy{MaxAttempts: 8, DegradeAfter: 2}
		svc, err := gcbfs.NewService(g, cfg)
		if err != nil {
			log.Fatal(err)
		}
		r, err := svc.Run(ctx, sources[0])
		st := svc.FaultStats()
		switch {
		case err != nil:
			fmt.Printf("  %4d  %8d  %8d  %8v  typed error: %v\n",
				seed, st.Injected, st.Retries+1, st.Degraded > 0, err)
		default:
			for v := range chaosRef.Levels {
				if r.Levels[v] != chaosRef.Levels[v] {
					log.Fatalf("seed %d: recovery diverged at vertex %d", seed, v)
				}
			}
			fmt.Printf("  %4d  %8d  %8d  %8v  recovered, bit-identical\n",
				seed, st.Injected, r.Attempts, r.Degraded)
		}
	}
	// Deadlines compose with retries: the per-query (or Config.QueryTimeout)
	// bound caps the whole attempt sequence and is final — expiry is
	// context.DeadlineExceeded, counted in FaultStats.Timeouts, never retried.
	{
		cfg := gcbfs.DefaultConfig(cluster)
		svc, err := gcbfs.NewService(g, cfg)
		if err != nil {
			log.Fatal(err)
		}
		_, err = svc.Run(ctx, sources[0], gcbfs.WithDeadline(time.Nanosecond))
		fmt.Printf("  1 ns deadline: err=%v, timeouts=%d\n", err, svc.FaultStats().Timeouts)
	}

	fmt.Println("\nbenchmark trajectory (latest committed BENCH_*.json):")
	if path := latestBenchReport(); path == "" {
		fmt.Println("  none found — generate one: go run ./cmd/bfsbench -json BENCH_<pr>.json -quick")
	} else if rep, err := bench.ReadFile(path); err != nil {
		fmt.Printf("  %s: %v\n", path, err)
	} else {
		fmt.Printf("  %s: schema %d, quick=%v, seed %d, %d cells\n",
			path, rep.Schema, rep.Quick, rep.Seed, len(rep.Cells))
		for _, c := range rep.Cells {
			if c.Metric == "gteps" || c.Metric == "allocs_per_query" {
				fmt.Printf("  %-44s %12.6g %s\n", c.Key(), c.Value, c.Unit)
			}
		}
		fmt.Println("  (diff two reports: go run ./cmd/bfsbench -diff new.json -baseline " + filepath.Base(path) + ")")
	}

	fmt.Println("\n(the paper's full sweeps: go run ./cmd/bfsbench -exp all)")
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// latestBenchReport finds the highest-numbered committed BENCH_<n>.json,
// looking upward from the working directory so the example works from the
// repo root and from examples/tuning alike.
func latestBenchReport() string {
	best, bestN := "", -1
	for _, dir := range []string{".", "..", "../.."} {
		paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		for _, p := range paths {
			var n int
			if _, err := fmt.Sscanf(filepath.Base(p), "BENCH_%d.json", &n); err == nil && n > bestN {
				best, bestN = p, n
			}
		}
		if best != "" {
			return best
		}
	}
	return best
}
