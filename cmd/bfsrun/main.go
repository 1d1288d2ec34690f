// bfsrun executes BFS/DOBFS on the simulated GPU cluster and prints per-run
// rates and the four-component timing breakdown of the paper's Figs. 8/10.
//
// Usage:
//
//	bfsrun -rmat 16 -nodes 4 -ranks 2 -gpus 2 -sources 6
//	bfsrun -graph scale20.gcbf -nodes 8 -ranks 2 -gpus 2 -no-do
//	bfsrun -rmat 14 -nodes 1 -ranks 1 -gpus 4 -validate
//	bfsrun -rmat 16 -nodes 8 -ranks 2 -gpus 2 -exchange butterfly -compress adaptive
//	bfsrun -rmat 15 -nodes 4 -ranks 2 -gpus 2 -sources 16 -parallel 8
//	bfsrun -rmat 15 -nodes 3 -ranks 2 -gpus 2 -sources 64 -sweep -validate
//
// -compress selects the frontier-exchange codec: "off" (default, the paper's
// fixed-width packing: raw blocks charged 4 bytes per id) or "adaptive" (each
// block in its smallest scheme by exact size — raw, delta or bitmap ids, raw
// or sparse lane sets, raw or bit-packed parent pairs — with a "wire:"
// summary line). Any other spelling exits 1 before a graph is built.
//
// -exchange selects the inter-rank normal-vertex exchange policy:
// "allpairs" (default, one message per destination rank per iteration),
// "butterfly" (hypercube hops with aggregated messages; any rank count —
// non-powers-of-two add a pre/post cleanup hop pair), or "hybrid" (picks
// allpairs or butterfly per iteration from the known frontier volume
// through a cost model over the simulated link parameters). It applies to
// -sweep as well: the sweep's records ride the same exchange. Results are
// identical across policies; message counts and simulated times differ.
//
// -parallel runs up to K BFS queries concurrently through the core query
// plan's batch path — the service workload of the paper's §VI-A methodology
// (64 random sources per data point). Results are deterministic and printed
// in source order regardless of K.
//
// -sweep answers all sources in a single multi-source traversal (MS-BFS):
// per-vertex visited state widens to a K-bit query mask and one BSP sweep
// produces every query's levels and parents, bit-identical to independent
// runs; per-query counters and simulated time are equal shares of the sweep
// totals.
//
// -updates N replays a stream of N synthetic edge-delta batches (size
// -updatefrac of the edge count, kind -updatekind) against the loaded graph:
// each batch advances the graph one epoch — the next epoch's partition is
// built incrementally beside the live one, sharing unchanged per-GPU
// subgraphs — and the previous result is repaired by a corrective traversal
// instead of recomputed. With -validate every repaired result is checked
// bit-identically (levels AND parents) against a full recompute on the new
// epoch plus the serial/Graph500 rules:
//
//	bfsrun -rmat 14 -nodes 3 -ranks 2 -gpus 2 -updates 3 -updatefrac 0.01 -updatekind mixed -validate
//
// -timeout bounds the whole run (all queries, or the whole update replay)
// with a context deadline; the engine aborts within one BSP iteration of
// expiry. Exit codes: 0 success, 1 any other error, 3 deadline expired —
// scripts distinguish a slow run (3) from a wrong one (1).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"gcbfs/internal/baseline"
	"gcbfs/internal/core"
	"gcbfs/internal/delta"
	"gcbfs/internal/g500"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "binary graph file (from rmatgen)")
		rmatScale = flag.Int("rmat", 0, "generate an RMAT graph of this scale instead of -graph")
		nodes     = flag.Int("nodes", 1, "cluster nodes")
		ranks     = flag.Int("ranks", 2, "MPI ranks per node")
		gpus      = flag.Int("gpus", 2, "GPUs per rank")
		th        = flag.Int64("th", 0, "degree threshold TH (0 = auto via 4n/p rule)")
		nSources  = flag.Int("sources", 6, "number of randomly chosen BFS sources")
		seed      = flag.Int64("seed", 1, "source selection seed")
		parallel  = flag.Int("parallel", 1, "concurrent BFS queries (batch path; results stay deterministic)")
		noDO      = flag.Bool("no-do", false, "disable direction optimization (plain BFS)")
		l2a       = flag.Bool("local-all2all", false, "enable the Local-All2All optimization (L)")
		uniq      = flag.Bool("uniquify", false, "enable send-bin uniquification (U)")
		ir        = flag.Bool("iallreduce", false, "use non-blocking delegate reduction (IR instead of BR)")
		compress  = flag.String("compress", "off", "frontier-exchange codec: off (the paper's fixed-width packing) or adaptive (the smallest scheme per block)")
		exchange  = flag.String("exchange", "allpairs", "normal-vertex exchange policy, -sweep included: allpairs, butterfly or hybrid")
		amp       = flag.Float64("amp", 1, "work amplification for the timing model (2^(paperScale-localScale))")
		sweep     = flag.Bool("sweep", false, "answer all sources in one shared multi-source sweep (MS-BFS) instead of independent queries")
		validate  = flag.Bool("validate", false, "validate distances against serial BFS + Graph500 rules")
		updates   = flag.Int("updates", 0, "replay this many synthetic edge-delta batches, repairing the BFS across each epoch")
		updFrac   = flag.Float64("updatefrac", 0.01, "delta size as a fraction of the undirected edge count (with -updates)")
		updKind   = flag.String("updatekind", "mixed", "delta kind: insert, delete or mixed (with -updates)")
		timeout   = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no bound; expiry exits with code 3)")
	)
	flag.Parse()

	// exitErr maps an error to the documented exit codes: 3 for a deadline
	// expiry (the run was slow, not wrong), 1 for everything else.
	exitErr := func(err error) {
		fmt.Fprintf(os.Stderr, "bfsrun: %v\n", err)
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	// The codec and exchange spellings are checked before any graph is built.
	mode, err := wire.ParseMode(*compress)
	if err != nil {
		exitErr(err)
	}
	strat, err := core.ParseExchange(*exchange)
	if err != nil {
		exitErr(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	el, err := loadGraph(*graphPath, *rmatScale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfsrun: %v\n", err)
		os.Exit(1)
	}
	shape := core.ClusterShape{Nodes: *nodes, RanksPerNode: *ranks, GPUsPerRank: *gpus}
	deg := el.OutDegrees()
	threshold := *th
	if threshold <= 0 {
		threshold = partition.SuggestThreshold(deg, 4*el.N/int64(shape.P()))
	}
	sep := partition.Separate(el, threshold)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfsrun: %v\n", err)
		os.Exit(1)
	}
	opts := core.DefaultOptions()
	opts.DirectionOptimized = !*noDO
	opts.LocalAll2All = *l2a
	opts.Uniquify = *uniq
	opts.BlockingReduce = !*ir
	opts.Compression = mode
	opts.Exchange = strat
	opts.WorkAmplification = *amp
	opts.CollectLevels = *validate
	plan, err := core.NewPlan(sg, shape, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfsrun: %v\n", err)
		os.Exit(1)
	}

	mem := sg.Memory()
	fmt.Printf("graph: n=%d m=%d | cluster %s (%d GPUs) | TH=%d d=%d (%.2f%% of n) nn=%.2f%% of m\n",
		el.N, el.M(), shape, shape.P(), threshold, sg.D(),
		100*float64(sg.D())/float64(el.N), 100*float64(sg.CountNN)/float64(el.M()))
	fmt.Printf("memory: %.1f MB total (edge list %.1f MB, plain CSR %.1f MB), max GPU %.1f MB\n",
		mb(mem.Total()), mb(sg.EdgeListBytes()), mb(sg.PlainCSRBytes()), mb(sg.MaxGPUBytes()))

	// Sources: deterministic picks among positive-degree vertices (capped
	// at the available count — no spinning on sparse graphs).
	sources := graph.PickSources(deg, *nSources, uint64(*seed))
	if len(sources) < *nSources {
		fmt.Printf("note: only %d positive-degree sources available (asked for %d)\n",
			len(sources), *nSources)
	}

	// Delta-replay mode: repair the BFS across a stream of epoch updates
	// instead of answering independent queries.
	if *updates > 0 {
		if len(sources) == 0 {
			fmt.Fprintln(os.Stderr, "bfsrun: no positive-degree source for -updates")
			os.Exit(1)
		}
		if err := runUpdates(ctx, el, sg, shape, threshold, opts, sources[0],
			*updates, *updFrac, *updKind, uint64(*seed), *validate); err != nil {
			exitErr(err)
		}
		return
	}

	// The batch path: up to -parallel queries in flight, each on its own
	// pooled session over the shared plan; -sweep instead answers every
	// source through one multi-source traversal (MS-BFS), levels and
	// parents bit-identical to independent runs.
	var results []*metrics.RunResult
	if *sweep {
		results, err = plan.RunSweep(ctx, sources, core.Overrides{})
		if err == nil {
			fmt.Printf("sweep: %d queries answered by one shared traversal (per-query rates are sweep shares)\n",
				len(sources))
		}
	} else {
		results, err = plan.RunBatch(ctx, sources, *parallel, core.Overrides{})
		if err == nil && *parallel > 1 {
			fmt.Printf("batch: %d queries, %d in flight (deterministic, source-ordered)\n",
				len(sources), *parallel)
		}
	}
	if err != nil {
		exitErr(err)
	}

	var serialCSR *graph.CSR
	if *validate {
		serialCSR = graph.BuildCSR(el)
	}
	for _, res := range results {
		fmt.Printf("source %-10d iters=%-3d %8.3f ms  %8.3f GTEPS  edges-scanned=%d\n",
			res.Source, res.Iterations, res.SimSeconds*1e3, res.GTEPS(), res.EdgesScanned)
		if *validate {
			if err := g500.Validate(el, res.Source, res.Levels); err != nil {
				fmt.Fprintf(os.Stderr, "bfsrun: VALIDATION FAILED: %v\n", err)
				os.Exit(1)
			}
			want := baseline.SerialBFS(serialCSR, res.Source)
			if err := g500.CompareLevels(res.Levels, want); err != nil {
				fmt.Fprintf(os.Stderr, "bfsrun: MISMATCH vs serial: %v\n", err)
				os.Exit(1)
			}
		}
	}
	agg := metrics.AggregateRuns(results)
	fmt.Printf("\naggregate (geo-mean over %d runs, %d filtered): %.3f GTEPS, mean %.3f ms, %.1f iterations\n",
		agg.Runs, agg.Filtered, agg.GTEPS, agg.MeanMS, agg.Iterations)
	fmt.Printf("breakdown (mean ms): computation=%.3f local-comm=%.3f remote-normal=%.3f remote-delegate=%.3f\n",
		agg.Parts.Computation*1e3, agg.Parts.LocalComm*1e3,
		agg.Parts.RemoteNormal*1e3, agg.Parts.RemoteDelegate*1e3)
	if mode != wire.ModeOff {
		var w metrics.WireStats
		for _, r := range results {
			w.Accumulate(r.Wire)
		}
		fmt.Printf("wire (%s): %.1f kB raw -> %.1f kB sent (%.1f%% saved; schemes raw=%d delta=%d bitmap=%d)\n",
			mode, float64(w.RawBytes)/1024, float64(w.CompressedBytes)/1024,
			100*w.Savings(), w.SchemeRaw, w.SchemeDelta, w.SchemeBitmap)
		fmt.Printf("codec: %.1f kB through pack/unpack kernels, %.2f µs charged (in remote-normal)\n",
			float64(w.CodecBytes)/1024, w.CodecSeconds*1e6)
		if w.PairRawBytes > 0 {
			fmt.Printf("parent pairs: %.1f kB raw -> %.1f kB sent\n",
				float64(w.PairRawBytes)/1024, float64(w.PairWireBytes)/1024)
		}
		if w.MaskRawBytes > 0 {
			fmt.Printf("delegate masks: %.1f kB raw -> %.1f kB sent\n",
				float64(w.MaskRawBytes)/1024, float64(w.MaskWireBytes)/1024)
		}
	}
	var xs metrics.ExchangeStats
	for _, r := range results {
		xs.Accumulate(r.Exchange)
	}
	fmt.Printf("exchange (%s): iters allpairs=%d butterfly=%d hops/iter≤%d msgs=%d forwarded=%.1f kB max-msg=%.2f MB\n",
		xs.Strategy, xs.AllPairsIterations, xs.ButterflyIterations, xs.HopsPerIteration,
		xs.Messages, float64(xs.ForwardedBytes)/1024, float64(xs.MaxMessageBytes)/(1<<20))
	if xs.ButterflyIterations > 0 {
		fmt.Printf("pipeline: %.2f µs codec hidden under hop transfers, %d stalls (codec outlasted the wire)\n",
			xs.HiddenCodecSeconds*1e6, xs.PipelineStalls)
	}
	if xs.NVLinkSeconds > 0 {
		fmt.Printf("nvlink (hierarchical): %.2f µs intra-rank aggregation/staging, %.2f µs hidden under hop transfers\n",
			xs.NVLinkSeconds*1e6, xs.HiddenNVLinkSeconds*1e6)
	}
	fmt.Printf("exchange cost model: predicted remote-normal %.3f ms vs actual %.3f ms (calibration ap=%.2f bf=%.2f)\n",
		xs.PredictedSeconds*1e3, totalRemoteNormal(results)*1e3,
		xs.CalibrationAllPairs, xs.CalibrationButterfly)
	if *validate {
		fmt.Println("validation: all runs match serial BFS and pass Graph500-style checks")
	}
}

// runUpdates replays n synthetic delta batches: each advances the graph one
// epoch (incremental distribution beside the live partition) and repairs the
// running BFS result through the corrective traversal, each repaired result
// the next repair's prior; the per-epoch line shows what the tree's patch sent
// (pairs and wire bytes) beside a from-scratch resolution's. With validate, every
// repaired result is compared bit-identically against a full recompute on
// the new epoch and checked against the serial/Graph500 rules.
func runUpdates(ctx context.Context, el *graph.EdgeList, sg *partition.Subgraphs, shape core.ClusterShape,
	threshold int64, opts core.Options, source int64, n int, frac float64,
	kindName string, seed uint64, validate bool) error {
	kind, err := delta.ParseKind(kindName)
	if err != nil {
		return err
	}
	// Repair consumes the prior epoch's levels AND parents regardless of
	// what the query flags asked for.
	opts.CollectLevels = true
	opts.CollectParents = true
	plan, err := core.NewPlanEpoch(sg, shape, opts, 1)
	if err != nil {
		return err
	}
	prior, err := plan.Run(ctx, source, core.Overrides{})
	if err != nil {
		return err
	}
	fmt.Printf("\nupdates: replaying %d %s deltas of ~%.2f%% of edges, repairing source %d across epochs\n",
		n, kind, 100*frac, source)
	fmt.Printf("epoch 1: full traversal %8.3f ms, %d iterations\n",
		prior.SimSeconds*1e3, prior.Iterations)
	for i := 1; i <= n; i++ {
		b := delta.Synthesize(el, frac, kind, seed+uint64(i))
		el2, err := delta.Apply(el, b)
		if err != nil {
			return err
		}
		sep2 := partition.Separate(el2, threshold)
		sg2, shared, err := partition.DistributeIncremental(el2, sep2, shape.PartitionConfig(), sg)
		if err != nil {
			return err
		}
		epoch := uint64(i + 1)
		plan2, err := core.NewPlanEpoch(sg2, shape, opts, epoch)
		if err != nil {
			return err
		}
		invalid := delta.InvalidatedRows(prior.Levels, prior.Parents, b, sg2.Neighbors)
		nInvalid := 0
		for _, iv := range invalid {
			if iv {
				nInvalid++
			}
		}
		rep, err := plan2.Repair(ctx, core.Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents},
			invalid, b.Inserts, core.Overrides{})
		if err != nil {
			return err
		}
		fmt.Printf("epoch %d: Δ%d edges, %d invalidated, %d/%d GPU subgraphs shared | repair %8.3f ms (%d iters, tree %d pairs / %d B)",
			epoch, b.Size(), nInvalid, shared, shape.P(), rep.SimSeconds*1e3, rep.Iterations, rep.ParentPairs, rep.Wire.PairWireBytes)
		if validate {
			full, err := plan2.Run(ctx, source, core.Overrides{})
			if err != nil {
				return err
			}
			for v := range full.Levels {
				if rep.Levels[v] != full.Levels[v] {
					return fmt.Errorf("epoch %d: vertex %d repaired level %d, recompute %d",
						epoch, v, rep.Levels[v], full.Levels[v])
				}
			}
			for v := range full.Parents {
				if rep.Parents[v] != full.Parents[v] {
					return fmt.Errorf("epoch %d: vertex %d repaired parent %d, recompute %d",
						epoch, v, rep.Parents[v], full.Parents[v])
				}
			}
			if err := g500.Validate(el2, source, rep.Levels); err != nil {
				return fmt.Errorf("epoch %d: %w", epoch, err)
			}
			want := baseline.SerialBFS(graph.BuildCSR(el2), source)
			if err := g500.CompareLevels(rep.Levels, want); err != nil {
				return fmt.Errorf("epoch %d: %w", epoch, err)
			}
			fmt.Printf(" vs recompute %8.3f ms (%.2f×, tree %d pairs / %d B) — bit-identical, serial-validated",
				full.SimSeconds*1e3, full.SimSeconds/rep.SimSeconds, full.ParentPairs, full.Wire.PairWireBytes)
		}
		fmt.Println()
		el, sg, prior = el2, sg2, rep
	}
	if validate {
		fmt.Println("validation: every repaired epoch matches a full recompute (levels and parents) and the Graph500 rules")
	}
	return nil
}

func loadGraph(path string, scale int) (*graph.EdgeList, error) {
	switch {
	case path != "" && scale != 0:
		return nil, fmt.Errorf("use either -graph or -rmat, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadBinary(f)
	case scale > 0:
		return rmat.Generate(rmat.DefaultParams(scale)), nil
	default:
		return nil, fmt.Errorf("one of -graph or -rmat is required")
	}
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// totalRemoteNormal sums the remote-normal component over all runs — the
// actual counterpart of the policy cost model's predicted seconds.
func totalRemoteNormal(results []*metrics.RunResult) float64 {
	var t float64
	for _, r := range results {
		t += r.Parts.RemoteNormal
	}
	return t
}
