package bench

// The pinned suite. Fixed seeds, fixed scales, fixed shapes: the point is a
// trajectory, so the grid must not drift between PRs without a deliberate
// schema decision. Quick mode (CI, BENCH_<pr>.json baselines) runs one small
// scale; full mode adds the larger cells for local investigation.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"gcbfs/internal/core"
	"gcbfs/internal/delta"
	"gcbfs/internal/experiments"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/wire"
)

// Params tunes the suite run.
type Params struct {
	Quick bool
	Seed  int64 // source-selection seed; 0 = the experiments' default
}

func (p Params) seed() int64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return 20180405 // the paper's arXiv v2 date, as everywhere else
}

// sourcesPerCell is the BFS runs per exchange-grid cell (small: the suite's
// job is trending, not statistics — the simulation is deterministic anyway).
const sourcesPerCell = 3

// allocSources is the batch size of the allocation cells, matching the
// BenchmarkQueryAllocs harness so the two guards measure the same regime.
const allocSources = 8

// allocBatches is how many measured batches an allocation cell takes its
// minimum over. Which pooled session serves which source — and, across Ps,
// whether sync.Pool finds a session at all — is the scheduler's choice, so
// single batches swing (51–57 allocs/query and 6–13 KB at parallelism 8 even
// after a warm-up); over 20 the floor repeats exactly run to run.
const allocBatches = 20

// exchangeConfigs is the pinned strategy grid — the cmp3 ablation's axes.
// The names are cell keys shared with every committed BENCH_*.json.
var exchangeConfigs = []struct {
	name     string
	exchange core.Exchange
}{
	{"allpairs", core.ExchangeAllPairs},
	{"butterfly-pipe", core.ExchangeButterfly},
	{"hybrid", core.ExchangeHybrid},
}

// Run executes the pinned suite and returns the report.
func Run(p Params) (*Report, error) {
	rep := &Report{Schema: SchemaVersion, Quick: p.Quick, Seed: p.seed()}
	scales, rankCounts := []int{12, 14}, []int{4, 8}
	if p.Quick {
		scales, rankCounts = []int{11}, []int{4, 6}
	}
	for _, scale := range scales {
		el := experiments.BenchGraph(scale)
		sources := experiments.BenchSources(el, sourcesPerCell, p.seed())
		for _, ranks := range rankCounts {
			shape := core.ClusterShape{Nodes: ranks / 2, RanksPerNode: 2, GPUsPerRank: 2}
			opts := core.DefaultOptions()
			opts.Compression = wire.ModeAdaptive
			opts.CollectLevels = false
			pl, _, err := experiments.BenchPlan(el, shape, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %d ranks %d: %w", scale, ranks, err)
			}
			for _, cfg := range exchangeConfigs {
				ex := cfg.exchange
				ov := core.Overrides{Exchange: &ex}
				results, err := pl.RunBatch(context.Background(), sources, 4, ov)
				if err != nil {
					return nil, fmt.Errorf("bench: scale %d ranks %d %s: %w", scale, ranks, cfg.name, err)
				}
				rep.Cells = append(rep.Cells, exchangeCells(scale, ranks, cfg.name, results)...)
			}
		}
	}
	if err := hierarchyCells(rep); err != nil {
		return nil, err
	}
	if err := multisourceCells(rep); err != nil {
		return nil, err
	}
	if err := dynamicCells(rep); err != nil {
		return nil, err
	}
	if err := allocCells(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// dynamicFrac is the pinned delta size of the dynamic cells: 1% of the
// undirected edge count, mixed inserts and deletes — small enough that the
// repair should beat recomputing, large enough to exercise the probe.
const dynamicFrac = 0.01

// dynamicCells pins the incremental-graph trajectory: one mixed delta
// advances the scale-12 graph an epoch (incremental distribution beside the
// live partition, wall-clock build time recorded as informational), and the
// prior query is repaired on the new epoch. Recorded: the repaired query's
// GTEPS (simulated, deterministic — −5% tolerance), its exact wire bytes,
// and the repair:recompute simulated-seconds speedup (informational — it
// tracks delta structure, not code quality). The repair is asserted
// bit-identical to the recompute here too, so a broken repair can never
// post a benchmark number.
func dynamicCells(rep *Report) error {
	el := experiments.BenchGraph(12)
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	cfg := shape.PartitionConfig()
	th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
	opts := core.DefaultOptions()
	opts.Compression = wire.ModeAdaptive
	opts.CollectLevels = true
	opts.CollectParents = true
	sep := partition.Separate(el, th)
	sg, err := partition.Distribute(el, sep, cfg)
	if err != nil {
		return fmt.Errorf("bench: dynamic cells: %w", err)
	}
	p1, err := core.NewPlanEpoch(sg, shape, opts, 1)
	if err != nil {
		return fmt.Errorf("bench: dynamic cells: %w", err)
	}
	source := experiments.BenchSources(el, 1, rep.Seed)[0]
	ctx := context.Background()
	prior, err := p1.Run(ctx, source, core.Overrides{})
	if err != nil {
		return fmt.Errorf("bench: dynamic cells: %w", err)
	}

	b := delta.Synthesize(el, dynamicFrac, delta.KindMixed, uint64(rep.Seed))
	el2, err := delta.Apply(el, b)
	if err != nil {
		return fmt.Errorf("bench: dynamic cells: %w", err)
	}
	buildStart := time.Now()
	sep2 := partition.Separate(el2, th)
	sg2, _, err := partition.DistributeIncremental(el2, sep2, cfg, sg)
	if err != nil {
		return fmt.Errorf("bench: dynamic cells: %w", err)
	}
	p2, err := core.NewPlanEpoch(sg2, shape, opts, 2)
	if err != nil {
		return fmt.Errorf("bench: dynamic cells: %w", err)
	}
	buildMS := time.Since(buildStart).Seconds() * 1e3

	full, err := p2.Run(ctx, source, core.Overrides{})
	if err != nil {
		return fmt.Errorf("bench: dynamic cells: %w", err)
	}
	invalid := delta.Invalidated(prior.Levels, prior.Parents, b)
	rp, err := p2.Repair(ctx, core.Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}, invalid, b.Inserts, core.Overrides{})
	if err != nil {
		return fmt.Errorf("bench: dynamic cells: %w", err)
	}
	for v := range full.Levels {
		if rp.Levels[v] != full.Levels[v] || rp.Parents[v] != full.Parents[v] {
			return fmt.Errorf("bench: dynamic cells: repair diverged from recompute at vertex %d", v)
		}
	}
	mk := func(metric string, v float64, unit string) Cell {
		return Cell{Experiment: "dynamic", Scale: 12, Ranks: 4,
			Config: "mixed-1pct", Metric: metric, Value: v, Unit: unit}
	}
	rep.Cells = append(rep.Cells,
		mk("gteps_repaired", rp.GTEPS(), "GTEPS"),
		mk("wire_bytes", float64(rp.Wire.CompressedBytes), "B"),
		mk("repair_speedup", full.SimSeconds/rp.SimSeconds, "x"), // informational: no tolerance entry
		mk("epoch_build_ms", buildMS, "ms"),                      // informational: wall clock
	)
	return nil
}

// hierarchyGPUs is the pinned GPUs-per-rank axis of the hierarchy cells.
var hierarchyGPUs = []int{2, 4}

// hierarchyCells pins the two-level exchange trajectory: at 4 ranks ×
// GPUs-per-rank {2, 4}, the per-rank aggregation under all-pairs (where the
// per-message size shows up directly in remote-normal) and the butterfly
// (where the NVLink staging hides under hop transfers — nvlink_hidden_ratio
// guards the overlap).
func hierarchyCells(rep *Report) error {
	el := experiments.BenchGraph(12)
	sources := experiments.BenchSources(el, sourcesPerCell, rep.Seed)
	configs := []struct {
		name     string
		exchange core.Exchange
	}{
		{"allpairs", core.ExchangeAllPairs},
		{"butterfly-pipe", core.ExchangeButterfly},
	}
	for _, pgpu := range hierarchyGPUs {
		shape := core.ClusterShape{Nodes: 4, RanksPerNode: 1, GPUsPerRank: pgpu}
		opts := core.DefaultOptions()
		opts.Compression = wire.ModeAdaptive
		opts.CollectLevels = false
		pl, _, err := experiments.BenchPlan(el, shape, opts)
		if err != nil {
			return fmt.Errorf("bench: hierarchy cells pgpu=%d: %w", pgpu, err)
		}
		for _, cfg := range configs {
			ex := cfg.exchange
			results, err := pl.RunBatch(context.Background(), sources, 4, core.Overrides{Exchange: &ex})
			if err != nil {
				return fmt.Errorf("bench: hierarchy pgpu=%d %s: %w", pgpu, cfg.name, err)
			}
			agg := metrics.AggregateRuns(results)
			var wireBytes, msgs int64
			var remote, nvlink, hiddenNV float64
			for _, r := range results {
				wireBytes += r.Wire.CompressedBytes
				msgs += r.Exchange.Messages
				remote += r.Parts.RemoteNormal
				nvlink += r.Exchange.NVLinkSeconds
				hiddenNV += r.Exchange.HiddenNVLinkSeconds
			}
			mk := func(metric string, v float64, unit string) Cell {
				return Cell{Experiment: "hierarchy", Scale: 12, Ranks: 4,
					Config: fmt.Sprintf("%s-hier-g%d", cfg.name, pgpu),
					Metric: metric, Value: v, Unit: unit}
			}
			rep.Cells = append(rep.Cells,
				mk("gteps", agg.GTEPS, "GTEPS"),
				mk("wire_bytes", float64(wireBytes), "B"),
				mk("remote_normal_us", remote*1e6, "µs"),  // informational
				mk("messages", float64(msgs), "messages"), // informational: the count is asserted in cmp7
			)
			if cfg.exchange == core.ExchangeButterfly {
				ratio := 0.0
				if nvlink > 0 {
					ratio = hiddenNV / nvlink
				}
				rep.Cells = append(rep.Cells, mk("nvlink_hidden_ratio", ratio, ""))
			}
		}
	}
	return nil
}

// multisourceWidths is the pinned sweep-width axis of the multi-source cells.
var multisourceWidths = []int{8, 64}

// multisourceCells pins the multi-source sweep trajectory: for K ∈ {8, 64}
// the same K sources go through the independent batch path and one shared
// sweep, and the cells record each path's aggregate per-query throughput
// (Σ TEPS edges / Σ per-query seconds), the sweep's exact wire bytes, and the
// sweep:batch speedup. Scale 12 on 2×2×2 with the adaptive codec matches the
// alloc cells' regime so the two guards watch the same configuration.
func multisourceCells(rep *Report) error {
	el := experiments.BenchGraph(12)
	opts := core.DefaultOptions()
	opts.Compression = wire.ModeAdaptive
	opts.CollectLevels = false
	pl, _, err := experiments.BenchPlan(el, core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}, opts)
	if err != nil {
		return fmt.Errorf("bench: multisource cells: %w", err)
	}
	perQueryGTEPS := func(results []*metrics.RunResult) (gteps float64, wireBytes int64) {
		var teps int64
		var sim float64
		for _, r := range results {
			teps += r.TEPSEdges
			sim += r.SimSeconds
			wireBytes += r.Wire.CompressedBytes
		}
		return float64(teps) / sim / 1e9, wireBytes
	}
	for _, k := range multisourceWidths {
		sources := experiments.BenchSources(el, k, rep.Seed)
		batch, err := pl.RunBatch(context.Background(), sources, 4, core.Overrides{})
		if err != nil {
			return fmt.Errorf("bench: multisource K=%d batch: %w", k, err)
		}
		sweep, err := pl.RunSweep(context.Background(), sources, core.Overrides{})
		if err != nil {
			return fmt.Errorf("bench: multisource K=%d sweep: %w", k, err)
		}
		bG, _ := perQueryGTEPS(batch)
		sG, sW := perQueryGTEPS(sweep)
		mk := func(config, metric string, v float64, unit string) Cell {
			return Cell{Experiment: "multisource", Scale: 12, Ranks: 4,
				Config: fmt.Sprintf("%s-k%d", config, k), Metric: metric, Value: v, Unit: unit}
		}
		rep.Cells = append(rep.Cells,
			mk("batch", "gteps_per_query", bG, "GTEPS"),
			mk("sweep", "gteps_per_query", sG, "GTEPS"),
			mk("sweep", "wire_bytes", float64(sW), "B"),
			mk("sweep", "sweep_speedup", sG/bG, "x"), // informational: no tolerance entry
		)
	}
	return nil
}

// exchangeCells reduces one config's batch into the per-cell metrics:
// traversal rate, exact bytes on the wire, the fraction of codec compute the
// pipeline hid, and the policy cost model's relative prediction error.
func exchangeCells(scale, ranks int, config string, results []*metrics.RunResult) []Cell {
	agg := metrics.AggregateRuns(results)
	var wireBytes int64
	var codecSecs, hiddenSecs, predicted, remote float64
	for _, r := range results {
		wireBytes += r.Wire.CompressedBytes
		codecSecs += r.Wire.CodecSeconds
		hiddenSecs += r.Exchange.HiddenCodecSeconds
		predicted += r.Exchange.PredictedSeconds
		remote += r.Parts.RemoteNormal
	}
	hiddenRatio := 0.0
	if codecSecs > 0 {
		hiddenRatio = hiddenSecs / codecSecs
	}
	policyErr := 0.0
	if remote > 0 {
		policyErr = (predicted - remote) / remote
		if policyErr < 0 {
			policyErr = -policyErr
		}
	}
	mk := func(metric string, v float64, unit string) Cell {
		return Cell{Experiment: "exchange", Scale: scale, Ranks: ranks,
			Config: config, Metric: metric, Value: v, Unit: unit}
	}
	return []Cell{
		mk("gteps", agg.GTEPS, "GTEPS"),
		mk("wire_bytes", float64(wireBytes), "B"),
		mk("hidden_codec_ratio", hiddenRatio, ""),
		mk("policy_error", policyErr, ""),
	}
}

// allocCells measures heap allocations and bytes per query at Parallelism 1
// and 8 on the same graph/shape/options as BenchmarkQueryAllocs: scale 12,
// 2×2×2, adaptive codec, hybrid exchange, no level collection. A warm-up
// batch sizes the session pool and arenas; the cell is the minimum over
// allocBatches measured batches (ReadMemStats deltas, not timing), so the
// steady state is what gets recorded.
func allocCells(rep *Report) error {
	el := experiments.BenchGraph(12)
	sources := experiments.BenchSources(el, allocSources, 7)
	opts := core.DefaultOptions()
	opts.Compression = wire.ModeAdaptive
	opts.Exchange = core.ExchangeHybrid
	opts.CollectLevels = false
	pl, _, err := experiments.BenchPlan(el, core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}, opts)
	if err != nil {
		return fmt.Errorf("bench: alloc cells: %w", err)
	}
	for _, par := range []int{1, 8} {
		batch := func() error {
			_, err := pl.RunBatch(context.Background(), sources, par, core.Overrides{})
			return err
		}
		// Collect first, then keep the collector off across warm-up and
		// measurement: a collection in between can empty the sync.Pool of
		// sessions the warm-up just filled, and a measured batch then pays
		// for fresh sessions (~160 allocs/query instead of ~50).
		prevGC := debug.SetGCPercent(-1)
		runtime.GC()
		err := batch() // warm-up: pool, arenas, selector maps
		mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for i := 0; i < allocBatches && err == nil; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = batch()
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		debug.SetGCPercent(prevGC)
		if err != nil {
			return fmt.Errorf("bench: alloc cells: %w", err)
		}
		n := float64(len(sources))
		config := fmt.Sprintf("parallel-%d", par)
		rep.Cells = append(rep.Cells,
			Cell{Experiment: "allocs", Config: config, Metric: "allocs_per_query",
				Value: float64(mallocs) / n, Unit: "allocs"},
			Cell{Experiment: "allocs", Config: config, Metric: "bytes_per_query",
				Value: float64(bytes) / n, Unit: "B"},
		)
	}
	return nil
}
