package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gcbfs/internal/core"
	"gcbfs/internal/delta"
	"gcbfs/internal/g500"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program is instrumented). Spans of one op share
// its number; set-up and probes carry op -1. Times are nanoseconds since the
// trace began.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written with the record at exit.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return float64(s.End-s.Start) / 1e9
}

// durations lists, in seconds, every closed span of the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// callCounts sums what metrics.RunResult reports over the core calls of the
// window's first Prefix ops, a fixed set of queries per seed, so every figure
// derived from it repeats exactly.
type callCounts struct {
	calls, answers float64
	iterations     float64 // per call, not per answer: a sweep's K answers share its supersteps
	delegateComms  float64
	edges          float64
	messages       float64
	wireBytes      float64
	rawBytes       float64
	forwarded      float64
	delegateBytes  float64
	codecBytes     float64
	codecSeconds   float64
	hiddenCodec    float64
	sim            float64
	parts          metrics.Breakdown
	rates          []float64 // modelled GTEPS of every answer
}

// add folds in the results of one core call (one for Run and RunRepair, K
// for RunSweep, whose per-query figures are the sweep's totals over K).
func (c *callCounts) add(results []*metrics.RunResult) {
	c.calls++
	c.iterations += float64(results[0].Iterations)
	c.delegateComms += float64(results[0].DelegateComms)
	for _, r := range results {
		c.answers++
		c.edges += float64(r.EdgesScanned)
		c.messages += float64(r.Exchange.Messages)
		c.wireBytes += float64(r.Wire.CompressedBytes)
		c.rawBytes += float64(r.Wire.RawBytes)
		c.forwarded += float64(r.Exchange.ForwardedBytes)
		c.codecBytes += float64(r.Wire.CodecBytes)
		c.codecSeconds += r.Wire.CodecSeconds
		c.hiddenCodec += r.Exchange.HiddenCodecSeconds
		c.sim += r.SimSeconds
		c.rates = append(c.rates, r.GTEPS())
		c.parts.Add(r.Parts)
		for _, it := range r.PerIteration {
			c.delegateBytes += float64(it.BytesDelegate)
		}
	}
}

var (
	off       = false
	noCollect = core.Overrides{CollectLevels: &off, CollectParents: &off}
)

// traced is the state of one traced pass: the façade and, beside it, the
// same composition rebuilt from the layers' public functions. Every op runs
// on both, one after the other, so the two clocks see the same machine.
type traced struct {
	w   workload
	in  *inputs
	rec *record
	tr  *tracer
	ctx context.Context
	f   *facade

	el     *graph.EdgeList
	th     int64
	sub    *partition.Subgraphs
	plan   *core.Plan
	priors []*metrics.RunResult // mutable workload: the held results

	counts callCounts
	// Mutable workload only: modelled seconds of the repairs and of the
	// fresh Plan.Run calls they are compared with, reuse and affected counts.
	simRepair, simFresh   float64
	sharedGPUs, totalGPUs float64
	affected              float64
}

// setup performs NewService's composition under spans:
// SuggestThreshold → Separate → Distribute → NewPlanEpoch.
func (t *traced) setup() error {
	shape := t.w.shape()
	epoch := uint64(0)
	if t.w.Kind == opRepair {
		epoch = 1
	}
	root := t.tr.begin("setup", -1, -1)
	id := t.tr.begin("partition.suggest_threshold", -1, root)
	t.th = partition.SuggestThreshold(t.el.OutDegrees(), 4*t.el.N/int64(shape.P()))
	t.tr.end(id)
	id = t.tr.begin("partition.separate", -1, root)
	sep := partition.Separate(t.el, t.th)
	t.tr.end(id)
	id = t.tr.begin("partition.distribute", -1, root)
	sub, err := partition.Distribute(t.el, sep, shape.PartitionConfig())
	t.tr.end(id)
	if err != nil {
		return err
	}
	id = t.tr.begin("core.new_plan", -1, root)
	plan, err := core.NewPlanEpoch(sub, shape, t.w.coreOptions(), epoch)
	t.tr.end(id)
	t.tr.end(root)
	t.sub, t.plan = sub, plan
	return err
}

// verify checks one core answer like the façade's, and counts it.
func (t *traced) verify(op int, r *metrics.RunResult, tree bool) {
	t.rec.Attempted++
	if err := t.in.chk.check(r.Source, r.Levels, r.Parents, tree); err != nil {
		t.rec.fail(fmt.Errorf("core op %d source %d: %w", op, r.Source, err))
	}
}

// query makes the core call of a Run / RunSweep op under a span of the given
// name and returns its results and duration.
func (t *traced) query(op int, name string, sources []int64, ov core.Overrides) ([]*metrics.RunResult, float64, error) {
	var rs []*metrics.RunResult
	var err error
	root := t.tr.begin("op", op, -1)
	id := t.tr.begin(name, op, root)
	if t.w.Kind == opSweep {
		rs, err = t.plan.RunSweep(t.ctx, sources, ov)
	} else {
		var r *metrics.RunResult
		r, err = t.plan.Run(t.ctx, sources[0], ov)
		rs = []*metrics.RunResult{r}
	}
	dt := t.tr.end(id)
	t.tr.end(root)
	return rs, dt, err
}

// cycle replays the mutable workload's op on the layers, the composition
// the façade performs in ApplyDelta and Repair: delta.Apply → Separate →
// DistributeIncremental → NewPlanEpoch, then per held result delta.Affected
// → Plan.RunRepair. Beside each repair it times the same call with the
// gather off and, while counted is set, a fresh Plan.Run of the source on
// the new epoch, the base of core.repair_over_run_ratio. Span names carry
// prefix ("warm." for warm-up cycles, which no metric reads). It returns
// the time spent in the spans that mirror the façade's timed calls.
func (t *traced) cycle(op int, prefix string, b *delta.Batch, counted bool) (float64, error) {
	shape := t.w.shape()
	root := t.tr.begin(prefix+"op", op, -1)
	apply := t.tr.begin(prefix+"apply_delta", op, root)
	id := t.tr.begin(prefix+"delta.apply", op, apply)
	el, err := delta.Apply(t.el, b)
	t.tr.end(id)
	if err != nil {
		return 0, err
	}
	id = t.tr.begin(prefix+"partition.separate", op, apply)
	sep := partition.Separate(el, t.th)
	t.tr.end(id)
	id = t.tr.begin(prefix+"partition.distribute_incremental", op, apply)
	sub, shared, err := partition.DistributeIncremental(el, sep, shape.PartitionConfig(), t.sub)
	t.tr.end(id)
	if err != nil {
		return 0, err
	}
	id = t.tr.begin(prefix+"core.new_plan", op, apply)
	plan, err := core.NewPlanEpoch(sub, shape, t.w.coreOptions(), t.plan.Epoch()+1)
	t.tr.end(id)
	busy := t.tr.end(apply)
	if err != nil {
		return 0, err
	}
	t.el, t.sub, t.plan = el, sub, plan
	if counted {
		t.sharedGPUs += float64(shared)
		t.totalGPUs += float64(shape.P())
	}
	for j, prior := range t.priors {
		rep := t.tr.begin(prefix+"repair", op, root)
		id = t.tr.begin(prefix+"delta.affected", op, rep)
		invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
		t.tr.end(id)
		id = t.tr.begin(prefix+"core.run", op, rep)
		r, err := plan.RunRepair(t.ctx, prior.Source, prior.Levels, invalid, seeds, core.Overrides{})
		t.tr.end(id)
		busy += t.tr.end(rep)
		if err != nil {
			return 0, fmt.Errorf("repair of %d: %w", prior.Source, err)
		}
		id = t.tr.begin(prefix+"core.run_nolevels", op, root)
		_, err = plan.RunRepair(t.ctx, prior.Source, prior.Levels, invalid, seeds, noCollect)
		t.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("repair of %d without levels: %w", prior.Source, err)
		}
		t.priors[j] = r
		if prefix != "" {
			continue
		}
		t.verify(op, r, j == 0 && op%treeEvery == 0)
		if !counted {
			continue
		}
		t.counts.add([]*metrics.RunResult{r})
		for _, bad := range invalid {
			if bad {
				t.affected++
			}
		}
		t.affected += float64(len(seeds))
		id = t.tr.begin("core.run_fresh", op, root)
		fresh, err := plan.Run(t.ctx, prior.Source, core.Overrides{})
		t.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("fresh run of %d: %w", prior.Source, err)
		}
		t.simRepair += r.SimSeconds
		t.simFresh += fresh.SimSeconds
	}
	t.tr.end(root)
	return busy, nil
}

// paired runs op number op on the façade (no spans, allocation counters
// read around its timed calls) and then on the layers (spans). Warm-up ops
// pass prefix "warm." and a throw-away record.
func (t *traced) paired(rec *record, win *window, op int, prefix string, before, after func()) (float64, error) {
	in, err := t.f.step(rec, win, op, before, after)
	if err != nil {
		return 0, fmt.Errorf("façade: %w", err)
	}
	counted := prefix == "" && op < t.w.Prefix
	if in.delta != nil {
		busy, err := t.cycle(op, prefix, batchOf(in.delta), counted)
		if err != nil {
			return 0, fmt.Errorf("layers, cycle %d: %w", op, err)
		}
		return busy, nil
	}
	rs, dt, err := t.query(op, prefix+"core.run", in.sources, core.Overrides{})
	if err != nil {
		return 0, fmt.Errorf("layers, op %d: %w", op, err)
	}
	if prefix != "" {
		return dt, nil
	}
	if counted {
		t.counts.add(rs)
	}
	for i, r := range rs {
		t.verify(op, r, i == 0 && op%treeEvery == 0)
	}
	return dt, nil
}

// Shares of --seconds the traced pass gives its parts; the rest is set-up
// and input generation, which do not scale with it.
const (
	pairedShare   = 0.6 // façade and layer calls of the same ops, alternating
	nolevelsShare = 0.2 // Run / RunSweep again with the gather off
	probeShare    = 0.2 // all layer probes together
)

// runTraced is the pass every per-layer number comes from. It runs after and
// apart from the untraced pass, with fewer ops per part.
func runTraced(w workload, seed uint64, lim limits) (*record, error) {
	rec := newRecord(w, seed, "traced", lim.Seconds)
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	t := &traced{w: w, in: in, rec: rec, tr: &tracer{t0: time.Now()},
		ctx: context.Background(), f: newFacade(w, in, seed), el: in.chk.el}
	vals := map[string]float64{"gen.generate_s": in.genSeconds}

	t0 := time.Now()
	if err := g500.Validate(t.el, in.pool[0], in.chk.reference(in.pool[0], nil)); err != nil {
		return nil, fmt.Errorf("reference answer fails Graph500 validation: %w", err)
	}
	vals["g500.validate_s"] = time.Since(t0).Seconds()

	// Set-up, façade and layers in turn.
	var facadeSetups []float64
	for i := 0; i < max(min(lim.SetupReps, 3), 1); i++ {
		runtime.GC()
		s, err := t.f.setup()
		if err != nil {
			return nil, fmt.Errorf("façade set-up: %w", err)
		}
		facadeSetups = append(facadeSetups, s)
		runtime.GC()
		if err := t.setup(); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
	}
	setupSum := 0.0
	for _, name := range []string{"partition.suggest_threshold", "partition.separate", "partition.distribute", "core.new_plan"} {
		d := median(t.tr.durations(name))
		vals[name+"_s"] = d
		setupSum += d
	}
	rec.Info["facade.setup_s"] = value{median(facadeSetups), "s"}
	rec.Info["check.setup_spans_over_facade"] = value{ratio(setupSum, median(facadeSetups)), "ratio"}
	mem := float64(t.sub.Memory().Total())
	vals["partition.distribute_medges_per_s"] = ratio(float64(t.sub.M)/1e6, vals["partition.distribute_s"])
	vals["partition.device_bytes_per_edge"] = ratio(mem, float64(t.sub.M))
	vals["partition.edge_list_ratio"] = ratio(mem, float64(t.sub.EdgeListBytes()))
	delegates := t.sub.D()

	// The held results of the mutable workload, primed on both sides.
	if vals["gcbfs.run_batch_s"], err = t.f.prime(); err != nil {
		return nil, fmt.Errorf("façade prime: %w", err)
	}
	if w.Kind == opRepair {
		if t.priors, err = t.plan.RunBatch(t.ctx, in.pool, 2, core.Overrides{}); err != nil {
			return nil, fmt.Errorf("layers prime: %w", err)
		}
	}

	var discard record
	var scratch window
	for op := 0; op < w.Warm; op++ {
		if _, err := t.paired(&discard, &scratch, op, "warm.", nil, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if discard.Failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", discard.FirstFailure)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	var mallocs, bytes, gcs uint64
	before := func() { runtime.ReadMemStats(&m0) }
	after := func() {
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		gcs += uint64(m1.NumGC - m0.NumGC)
	}
	var win window
	share := limits{Seconds: pairedShare * lim.Seconds, Ops: lim.Ops}
	for op, layers := 0, 0.0; !share.done(op, w.Prefix, win.busy+layers); op++ {
		dt, err := t.paired(rec, &win, op, "", before, after)
		if err != nil {
			return nil, err
		}
		layers += dt
	}
	share.Seconds = nolevelsShare * lim.Seconds
	for op, busy := 0, 0.0; w.Kind != opRepair && !share.done(op, 1, busy); op++ {
		_, dt, err := t.query(op, "core.run_nolevels", t.f.next(op).sources, noCollect)
		if err != nil {
			return nil, fmt.Errorf("layers, op %d without levels: %w", op, err)
		}
		busy += dt
	}

	// The composition above must be the façade's: the same ops give the
	// same modelled rates to the last bit.
	rec.Attempted++
	if fg, cg := metrics.GeoMean(win.rates), metrics.GeoMean(t.counts.rates); fg != cg {
		rec.fail(fmt.Errorf("the layer composition models %v GTEPS, the façade %v: coreOptions no longer mirrors the façade", cg, fg))
	}

	facadeAnswers := float64(win.ops * t.f.expected())
	facadeP50 := median(win.calls)
	vals["gcbfs.allocs_per_query"] = ratio(float64(mallocs), facadeAnswers)
	vals["gcbfs.alloc_bytes_per_query"] = ratio(float64(bytes), facadeAnswers)
	vals["gcbfs.gc_cycles"] = float64(gcs)
	vals["gcbfs.apply_delta_s_p50"] = median(win.applies)
	pool := t.plan.PoolStats()
	vals["core.pool_hits"], vals["core.pool_misses"] = float64(pool.Hits), float64(pool.Misses)

	runs := t.tr.durations("core.run")
	nolevels := t.tr.durations("core.run_nolevels")
	runP50 := median(runs)
	c := &t.counts
	perCall := func(x float64) float64 { return ratio(x, c.calls) }
	perAnswer := func(x float64) float64 { return ratio(x, c.answers) }
	vals["core.run_s_p50"] = runP50
	vals["core.run_nolevels_s_p50"] = median(nolevels)
	vals["core.gather_s_p50"] = runP50 - median(nolevels)
	vals["core.iter_s_p50"] = ratio(runP50, perCall(c.iterations))
	vals["core.ns_per_edge_scanned"] = ratio(runP50*1e9, perCall(c.edges))
	if w.Kind == opSweep {
		vals["core.sweep_s_per_source"] = runP50 / sweepWidth
	}
	vals["core.iterations_per_query"] = perCall(c.iterations)
	vals["core.edges_scanned_per_query"] = perAnswer(c.edges)
	vals["core.messages_per_query"] = perAnswer(c.messages)
	vals["core.wire_bytes_per_query"] = perAnswer(c.wireBytes)
	vals["core.wire_raw_bytes_per_query"] = perAnswer(c.rawBytes)
	vals["core.forwarded_bytes_per_query"] = perAnswer(c.forwarded)
	vals["core.delegate_bytes_per_query"] = perAnswer(c.delegateBytes)
	vals["core.codec_bytes_per_query"] = perAnswer(c.codecBytes)
	vals["wire.compression_ratio"] = ratio(c.wireBytes, c.rawBytes)
	vals["model.sim_s_per_query"] = perAnswer(c.sim)
	vals["model.computation_s"] = perAnswer(c.parts.Computation)
	vals["model.local_comm_s"] = perAnswer(c.parts.LocalComm)
	vals["model.remote_normal_s"] = perAnswer(c.parts.RemoteNormal)
	vals["model.remote_delegate_s"] = perAnswer(c.parts.RemoteDelegate)
	vals["model.hidden_codec_ratio"] = ratio(c.hiddenCodec, c.codecSeconds)
	if w.Kind == opRepair {
		vals["partition.distribute_incremental_s_p50"] = median(t.tr.durations("partition.distribute_incremental"))
		vals["partition.shared_gpu_frac"] = ratio(t.sharedGPUs, t.totalGPUs)
		vals["delta.apply_s_p50"] = median(t.tr.durations("delta.apply"))
		vals["delta.affected_s_p50"] = median(t.tr.durations("delta.affected"))
		vals["delta.affected_frac"] = ratio(perAnswer(t.affected), float64(t.el.N))
		vals["core.repair_over_run_ratio"] = ratio(runP50, median(t.tr.durations("core.run_fresh")))
		vals["model.repair_over_run_ratio"] = ratio(t.simRepair, t.simFresh)
		rec.Info["check.apply_spans_over_facade"] = value{
			ratio(median(t.tr.durations("apply_delta")), vals["gcbfs.apply_delta_s_p50"]), "ratio"}
		rec.Timings["gcbfs.apply_delta_s"] = summarize(win.applies)
	}

	// Façade minus layers, per caller-visible call, over the same ops. It
	// includes what the spans themselves cost: two clock reads per call.
	// The façade's Repair is delta.Affected plus RunRepair: the repair span.
	layersP50 := runP50
	if w.Kind == opRepair {
		layersP50 = median(t.tr.durations("repair"))
	}
	vals["gcbfs.facade_self_s_p50"] = facadeP50 - layersP50
	rec.Info["check.core_over_facade_p50"] = value{ratio(layersP50, facadeP50), "ratio"}
	serialP50 := median(in.serial)
	vals["baseline.serial_bfs_s_p50"] = serialP50
	vals["baseline.host_speedup"] = ratio(serialP50*perCall(c.answers), facadeP50)

	sz := probeSizes{
		ranks: w.shape().Ranks(), gpusPerRank: w.Cluster.GPUsPerRank,
		delegates: delegates, localN: int(t.el.N) / w.shape().P(),
		idsPerMsg: int(ratio(c.rawBytes/4, c.messages)), msgBytes: int(ratio(c.wireBytes, c.messages)),
		mode: w.wireMode(),
	}
	budget := time.Duration(probeShare * lim.Seconds / probeCount * float64(time.Second))
	for name, v := range runProbes(sz, budget, t.tr) {
		vals[name] = v
	}
	estimateShares(vals, w, c, sz)

	rec.setMetrics(perLayer, vals)
	rec.Timings["facade.query_s"] = summarize(win.calls)
	rec.Timings["core.run_s"] = summarize(runs)
	rec.Timings["core.run_nolevels_s"] = summarize(nolevels)
	rec.Timings["baseline.serial_bfs_s"] = summarize(in.serial)
	rec.Spans = t.tr.spans
	return rec, nil
}

// estimateShares computes each leaf layer's share of one core call: counts
// of the call (from RunResult) times the unit cost its probe measured,
// spread over the cores the rank goroutines can use, over core.run_s_p50.
// These are computed, not measured inside core; what they leave is printed
// as core.unattributed_share (kernels, gather, scheduling, and any error of
// the estimates, so it can be negative).
func estimateShares(vals map[string]float64, w workload, c *callCounts, sz probeSizes) {
	run := vals["core.run_s_p50"]
	if run == 0 || c.calls == 0 {
		return
	}
	cores := float64(min(runtime.GOMAXPROCS(0), sz.ranks))
	perCall := func(x float64) float64 { return x / c.calls }
	mbs := func(name string) float64 { return ratio(1, vals[name]*1e6) } // seconds per byte

	// wire: CodecBytes counts every id's bytes through encode and decode.
	enc, dec := "wire.encode_mb_s", "wire.decode_mb_s"
	if w.Kind == opSweep {
		enc, dec = "wire.records_encode_mb_s", "wire.records_decode_mb_s"
	}
	wireS := perCall(c.codecBytes) / 2 * (mbs(enc) + mbs(dec)) / cores

	// frontier: the hierarchical exchange merges every id it sends or
	// relays once; with compression off the fixed-width pack and unpack
	// carry the payload instead of the codec.
	frontierS := perCall(c.rawBytes+c.forwarded) / 4 * vals["frontier.merge_ns_per_id"] / 1e9
	if sz.mode == 0 {
		frontierS += perCall(c.rawBytes) * (mbs("frontier.pack_mb_s") + mbs("frontier.unpack_mb_s"))
	}
	frontierS /= cores

	// mpi: per superstep three small allreduces (terminate vote, timing max,
	// counter sum) and, when delegates moved, the mask OR; per message its
	// share of an all-to-all round. Collectives are wall time already.
	perRound := float64(sz.ranks * max(sz.ranks-1, 1))
	mpiS := (perCall(c.iterations)*3*vals["mpi.allreduce_sum_us"] +
		perCall(c.delegateComms)*vals["mpi.allreduce_or_us"] +
		perCall(c.messages)*vals["mpi.alltoall_round_us"]/perRound) / 1e6

	// bitmask: per mask exchange every GPU folds its mask into the rank's,
	// takes the reduced one back and diffs it (three passes); every
	// delegate's bit is walked once per GPU that holds it.
	gpus := float64(sz.ranks * sz.gpusPerRank)
	maskBytes := float64((sz.delegates + 63) / 64 * 8)
	bitmaskS := (perCall(c.delegateComms)*gpus*3*maskBytes*ratio(1, vals["bitmask.or_gb_s"]*1e9) +
		float64(sz.delegates)*gpus*vals["bitmask.foreach_ns_per_bit"]/1e9) / cores

	vals["wire.est_share"] = wireS / run
	vals["frontier.est_share"] = frontierS / run
	vals["mpi.est_share"] = mpiS / run
	vals["bitmask.est_share"] = bitmaskS / run
	vals["core.unattributed_share"] = 1 - (wireS+frontierS+mpiS+bitmaskS)/run
}
