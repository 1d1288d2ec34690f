package main

import (
	"gcbfs"
	"gcbfs/internal/core"
	"gcbfs/internal/wire"
)

// runSeconds is the default length of one run's timed window; BENCHMARK.json
// carries the same number as run_seconds.
const runSeconds = 20

// defaultSeed is the seed of a run that names none. Seed 2 is the held-out
// seed: nothing is tuned on it, and a claim made against this benchmark must
// hold on it too.
const defaultSeed = 1

// A pass builds the service setupReps times at least and on until
// setupSeconds are spent; set-up time is the fastest of them.
const (
	setupReps    = 5
	setupSeconds = 1.5
)

type opKind int

const (
	opRun    opKind = iota // one Service.Run per op, one answer
	opSweep                // one Service.RunSweep of sweepWidth sources per op
	opRepair               // one ApplyDelta + Repair of every held result per op
)

const (
	sweepWidth = 64
	deltaFrac  = 0.001 // of the undirected edges, half deletes, half inserts
)

// workload is one named input set. Sizes come from a 2-core probe of the
// tree this benchmark was written against; README.md has the reasons.
type workload struct {
	Name string
	Why  string
	Kind opKind
	// Web selects gen.WebGraph (a fixed graph: only the sources derive from
	// the seed); otherwise the RMAT generator seed derives from the run seed.
	Web     bool
	Scale   int
	Cluster gcbfs.Cluster
	// Butterfly and Adaptive move the exchange stack off DefaultConfig
	// (all-pairs, compression off); pipelining is on either way.
	Butterfly bool
	Adaptive  bool
	// Pool is the number of distinct sources; Prefix is the number of leading
	// window ops whose counts and modelled rates are reported, one full
	// rotation of the pool, so those figures repeat exactly per seed however
	// long the window runs.
	Pool   int
	Prefix int
	Warm   int
}

var workloads = []workload{
	{
		Name: "rmat18-compute", Kind: opRun, Scale: 18,
		Cluster: gcbfs.Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2},
		Pool:    32, Prefix: 32, Warm: 8,
		Why: "8.4M directed edges on 4 ranks, ~1 KB on the wire per query: kernels, delegate-mask ops and the level/parent gather do nearly all the work; exchange, codec and mpi almost none.",
	},
	{
		Name: "rmat16-exchange", Kind: opRun, Scale: 16,
		Cluster:   gcbfs.Cluster{Nodes: 16, RanksPerNode: 2, GPUsPerRank: 2},
		Butterfly: true, Adaptive: true,
		Pool: 32, Prefix: 32, Warm: 8,
		Why: "32 ranks, butterfly + adaptive codec with per-hop re-encode: wire, mpi send/recv, frontier merge and core's exchange dominate, kernels are a minority; the mirror image of rmat18-compute.",
	},
	{
		Name: "web14-latency", Kind: opRun, Web: true, Scale: 14,
		Cluster: gcbfs.Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2},
		Pool:    32, Prefix: 32, Warm: 8,
		Why: "Hundreds of near-empty supersteps per query: per-iteration fixed cost (collective wait, goroutine hand-off, terminate vote, empty-message framing) is the whole bill; a codec speed-up must not move it.",
	},
	{
		Name: "rmat16-sweep", Kind: opSweep, Scale: 16,
		Cluster:  gcbfs.Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2},
		Adaptive: true,
		Pool:     256, Prefix: 4, Warm: 1,
		Why: "The second engine: 64-source shared sweeps through sweep.go, sweep_exchange.go, the record codec and bitmask.Matrix; a shared superstep driver must show no loss here.",
	},
	{
		Name: "rmat16-mutable", Kind: opRepair, Scale: 16,
		Cluster: gcbfs.Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2},
		Pool:    8, Prefix: 8, Warm: 1,
		Why: "The third engine plus delta and partition.DistributeIncremental: each op is ApplyDelta of a 0.1% mixed delta then Repair of 8 held results, where the epoch build costs more than a cold NewService.",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the façade configuration of the workload. Levels and parents are
// collected everywhere: Graph500 asks for the tree and Repair needs parents.
func (w workload) config() gcbfs.Config {
	cfg := gcbfs.DefaultConfig(w.Cluster)
	cfg.CollectParents = true
	if w.Butterfly {
		cfg.Exchange = gcbfs.ExchangeButterfly
	}
	if w.Adaptive {
		cfg.Compression = gcbfs.CompressionAdaptive
	}
	return cfg
}

func (w workload) shape() core.ClusterShape {
	return core.ClusterShape{Nodes: w.Cluster.Nodes, RanksPerNode: w.Cluster.RanksPerNode, GPUsPerRank: w.Cluster.GPUsPerRank}
}

// coreOptions is what the façade derives from config() for core.NewPlanEpoch.
// The façade's own mapping is unexported; the traced pass checks the two
// agree by requiring identical levels and identical modelled seconds.
func (w workload) coreOptions() core.Options {
	o := core.DefaultOptions()
	o.CollectParents = true
	if w.Butterfly {
		o.Exchange = core.ExchangeButterfly
	}
	o.Compression = w.wireMode()
	return o
}

func (w workload) wireMode() wire.Mode {
	if w.Adaptive {
		return wire.ModeAdaptive
	}
	return wire.ModeOff
}

// metricSpec is one row of BENCHMARK.json. Bound is only meaningful for
// end-to-end metrics. Exact marks figures that must repeat bit for bit on
// the same commit and seed (counts and the modelled clock).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a caller of the library sees, measured with tracing
// off. failed_frac from the issue is not a row: the contract forbids metrics
// that are always 0, so failures are carried by the result line's
// attempted/failed/correct fields and a non-zero exit instead. The two rates
// are multiples of the yardstick's serial BFS, not seconds: on the shared
// host this runs on, seconds spread by 20-50 % between runs of one commit and
// the ratios by 1-6 % (README.md, "Steadiness"); the seconds are printed
// beside them without a bound.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "speedup_vs_serial", Unit: "ratio", Better: higher, Bound: 0.25},
	{Name: "query_vs_serial_p50", Unit: "ratio", Better: lower, Bound: 0.25},
	{Name: "model_gteps", Unit: "GTEPS", Better: higher, Bound: 0.15, Exact: true},
	{Name: "heap_mb", Unit: "MiB", Better: lower, Bound: 0.10},
}

// perLayer lists the traced pass's metrics, <layer>.<metric>. Every workload
// reports every row; a row the workload never exercises (delta.* outside
// rmat16-mutable, wire.records_* outside rmat16-sweep) reads 0.
var perLayer = []metricSpec{
	{Name: "gcbfs.facade_self_s_p50", Unit: "s", Better: lower},
	{Name: "gcbfs.apply_delta_s_p50", Unit: "s", Better: lower},
	{Name: "gcbfs.run_batch_s", Unit: "s", Better: lower},
	{Name: "gcbfs.allocs_per_query", Unit: "count", Better: lower},
	{Name: "gcbfs.alloc_bytes_per_query", Unit: "B", Better: lower},
	{Name: "gcbfs.gc_cycles", Unit: "count", Better: lower},

	{Name: "core.run_s_p50", Unit: "s", Better: lower},
	{Name: "core.run_nolevels_s_p50", Unit: "s", Better: lower},
	{Name: "core.gather_s_p50", Unit: "s", Better: lower},
	{Name: "core.new_plan_s", Unit: "s", Better: lower},
	{Name: "core.iter_s_p50", Unit: "s", Better: lower},
	{Name: "core.ns_per_edge_scanned", Unit: "ns", Better: lower},
	{Name: "core.sweep_s_per_source", Unit: "s", Better: lower},
	{Name: "core.repair_over_run_ratio", Unit: "ratio", Better: lower},
	{Name: "core.iterations_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "core.edges_scanned_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "core.messages_per_query", Unit: "count", Better: lower, Exact: true},
	{Name: "core.wire_bytes_per_query", Unit: "B", Better: lower, Exact: true},
	{Name: "core.wire_raw_bytes_per_query", Unit: "B", Better: lower, Exact: true},
	{Name: "core.forwarded_bytes_per_query", Unit: "B", Better: lower, Exact: true},
	{Name: "core.delegate_bytes_per_query", Unit: "B", Better: lower, Exact: true},
	{Name: "core.codec_bytes_per_query", Unit: "B", Better: lower, Exact: true},
	{Name: "core.pool_hits", Unit: "count", Better: higher},
	{Name: "core.pool_misses", Unit: "count", Better: lower},
	{Name: "core.unattributed_share", Unit: "ratio", Better: lower},

	{Name: "partition.suggest_threshold_s", Unit: "s", Better: lower},
	{Name: "partition.separate_s", Unit: "s", Better: lower},
	{Name: "partition.distribute_s", Unit: "s", Better: lower},
	{Name: "partition.distribute_incremental_s_p50", Unit: "s", Better: lower},
	{Name: "partition.distribute_medges_per_s", Unit: "Medges/s", Better: higher},
	{Name: "partition.shared_gpu_frac", Unit: "ratio", Better: higher, Exact: true},
	{Name: "partition.device_bytes_per_edge", Unit: "B", Better: lower, Exact: true},
	{Name: "partition.edge_list_ratio", Unit: "ratio", Better: lower, Exact: true},

	{Name: "delta.apply_s_p50", Unit: "s", Better: lower},
	{Name: "delta.affected_s_p50", Unit: "s", Better: lower},
	{Name: "delta.affected_frac", Unit: "ratio", Better: lower, Exact: true},

	{Name: "wire.encode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "wire.decode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "wire.records_encode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "wire.records_decode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "wire.compression_ratio", Unit: "ratio", Better: lower, Exact: true},
	{Name: "wire.est_share", Unit: "ratio", Better: lower},

	{Name: "mpi.allreduce_or_us", Unit: "us", Better: lower},
	{Name: "mpi.allreduce_sum_us", Unit: "us", Better: lower},
	{Name: "mpi.alltoall_round_us", Unit: "us", Better: lower},
	{Name: "mpi.new_world_us", Unit: "us", Better: lower},
	{Name: "mpi.est_share", Unit: "ratio", Better: lower},

	{Name: "frontier.merge_ns_per_id", Unit: "ns", Better: lower},
	{Name: "frontier.sort_unique_ns_per_id", Unit: "ns", Better: lower},
	{Name: "frontier.pack_mb_s", Unit: "MB/s", Better: higher},
	{Name: "frontier.unpack_mb_s", Unit: "MB/s", Better: higher},
	{Name: "frontier.est_share", Unit: "ratio", Better: lower},

	{Name: "bitmask.or_gb_s", Unit: "GB/s", Better: higher},
	{Name: "bitmask.foreach_ns_per_bit", Unit: "ns", Better: lower},
	{Name: "bitmask.row_or_ns", Unit: "ns", Better: lower},
	{Name: "bitmask.est_share", Unit: "ratio", Better: lower},

	{Name: "model.sim_s_per_query", Unit: "s", Better: lower, Exact: true},
	{Name: "model.computation_s", Unit: "s", Better: lower, Exact: true},
	{Name: "model.local_comm_s", Unit: "s", Better: lower, Exact: true},
	{Name: "model.remote_normal_s", Unit: "s", Better: lower, Exact: true},
	{Name: "model.remote_delegate_s", Unit: "s", Better: lower, Exact: true},
	{Name: "model.hidden_codec_ratio", Unit: "ratio", Better: higher, Exact: true},
	{Name: "model.repair_over_run_ratio", Unit: "ratio", Better: lower, Exact: true},

	{Name: "baseline.serial_bfs_s_p50", Unit: "s", Better: lower},
	{Name: "baseline.host_speedup", Unit: "ratio", Better: higher},
	{Name: "g500.validate_s", Unit: "s", Better: lower},
	{Name: "gen.generate_s", Unit: "s", Better: lower},
}
