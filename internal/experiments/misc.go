package experiments

import (
	"fmt"

	"gcbfs/internal/baseline"
	"gcbfs/internal/core"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/related"
	"gcbfs/internal/simnet"
)

// Net1MessageSize reproduces the §VI-A1 message-size sweep: effective
// bandwidth through the rank NIC as the message size varies, for a bulk
// volume matching the paper's MB-sized exchanges. Expected: optimum ≈4 MB,
// small differences below 2 MB.
func Net1MessageSize(p Params) (*Table, error) {
	net := simnet.Ray()
	const volume = 256 << 20
	t := &Table{
		ID:      "net1",
		Title:   "message-size sweep through one rank NIC (256 MB bulk volume)",
		Paper:   "§VI-A1 — optimal ≈4 MB for data >2 MB; under 2 MB differences are not significant",
		Headers: []string{"message size", "efficiency", "transfer ms", "effective GB/s"},
	}
	for _, size := range []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20} {
		tm := net.PointToPoint(volume, size)
		t.Rows = append(t.Rows, []string{
			byteSize(size), f2(net.Efficiency(size)), ms(tm),
			f2(float64(volume) / tm / 1e9),
		})
	}
	return t, nil
}

func byteSize(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dkB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// WDC1LongTail reproduces the §VI-D WDC observation: on a long-tail web
// graph the per-iteration overhead dominates and DOBFS's direction-decision
// work makes it slightly slower than plain BFS.
func WDC1LongTail(p Params) (*Table, error) {
	wp := gen.DefaultWebParams(p.pick(12, 10))
	wp.NumChains = p.pick(16, 8)
	wp.ChainLength = int64(p.pick(300, 120))
	el := gen.WebGraph(wp)
	nodes := p.pick(10, 4)
	shape := core.ClusterShape{Nodes: nodes, RanksPerNode: 2, GPUsPerRank: 2}
	sources := pickSources(el.OutDegrees(), p.sources(), p.seed())
	th := suggestTH(el, shape.P())
	t := &Table{
		ID:      "wdc1",
		Title:   fmt.Sprintf("long-tail web graph, %s, TH=%d", shape, th),
		Paper:   "§VI-D — WDC 2012 on 40×2×2: ~330 iterations, BFS 84.2 vs DOBFS 79.7 GTEPS (DO slightly slower)",
		Headers: []string{"mode", "simMTEPS", "iterations", "mean ms"},
		Notes: []string{
			"WDC 2012 (4.29B vertices, 224B edges) → synthetic RMAT-core+chains web graph (DESIGN.md)",
			"amplification deliberately 1: the long tail's per-iteration overhead is the object under study",
		},
	}
	for _, do := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.DirectionOptimized = do
		opts.CollectLevels = false
		e, _, err := buildPlan(el, shape, th, opts)
		if err != nil {
			return nil, err
		}
		agg, err := measure(e, sources)
		if err != nil {
			return nil, err
		}
		name := "BFS"
		if do {
			name = "DOBFS"
		}
		t.Rows = append(t.Rows, []string{name, f2(agg.GTEPS * 1e3), f1(agg.Iterations), f2(agg.MeanMS)})
	}
	return t, nil
}

// Abl1CommModel reproduces the §II-B scaling argument with measured data:
// total communication volume of our engine vs a 1D-partitioned BFS vs the
// 2D-partitioning model, on the same graph and processor counts.
func Abl1CommModel(p Params) (*Table, error) {
	scale := p.pick(14, 12)
	el := rmatGraph(scale)
	csr := graph.BuildCSR(el)
	deg := el.OutDegrees()
	src := pickSources(deg, 1, p.seed())[0]
	serial := baseline.SerialBFS(csr, src)
	sizes := baseline.LevelSizes(serial)
	t := &Table{
		ID:      "abl1",
		Title:   fmt.Sprintf("communication volume: ours vs 1D vs 2D model, RMAT scale %d", scale),
		Paper:   "§II-B — 2D comm grows ~√p under weak scaling; delegate model grows ~log p_rank",
		Headers: []string{"GPUs", "ours (bytes)", "1D push (bytes)", "1D DO bcast (bytes)", "2D model (bytes)"},
		Notes: []string{
			"single source; ours = measured engine exchange volume (normal + delegate masks)",
			"2D model assumes direction switch after iteration 2 (typical for RMAT)",
		},
	}
	for _, gpus := range []int{4, 16, 64} {
		shape := gpuCountShapes(gpus)[0]
		th := suggestTH(el, gpus)
		opts := core.DefaultOptions()
		opts.CollectLevels = false
		e, _, err := buildPlan(el, shape, th, opts)
		if err != nil {
			return nil, err
		}
		res, err := runOne(e, src)
		if err != nil {
			return nil, err
		}
		var ours int64
		for _, it := range res.PerIteration {
			ours += it.BytesNormal
			// Each mask-exchange iteration moves ~2·log2(ranks) tree
			// messages of the mask; count the paper's d·p_rank/4 bound.
			if it.BytesDelegate > 0 {
				ours += it.BytesDelegate * int64(shape.Ranks()) / 4
			}
		}
		oneD, err := baseline.OneD(csr, src, gpus, false)
		if err != nil {
			return nil, err
		}
		oneDDO, err := baseline.OneD(csr, src, gpus, true)
		if err != nil {
			return nil, err
		}
		twoD, err := baseline.TwoDModel(el.N, sizes, 2, gpus)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			i64(int64(gpus)), i64(ours), i64(oneD.CommBytes),
			i64(oneDDO.CommBytes + oneDDO.BroadcastBytes), i64(twoD.TotalBytes()),
		})
	}
	return t, nil
}

// Figure1 renders the related-work landscape (Fig. 1) with our simulated
// point appended.
func Figure1(p Params) (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "large-scale BFS landscape (related work + this reproduction)",
		Paper:   "Fig. 1 — scale vs processors and GTEPS/processor across published systems",
		Headers: []string{"ref", "system", "kind", "scale", "processors", "GTEPS", "GTEPS/proc"},
	}
	for _, pt := range related.Figure1() {
		t.Rows = append(t.Rows, []string{
			pt.Ref, pt.System, pt.Kind.String(), i64(int64(pt.Scale)),
			i64(int64(pt.Processors)), f1(pt.GTEPS), f2(pt.GTEPSPerProcessor()),
		})
	}
	// Our simulated point: a small weak-scaled run projected by the
	// amplification factor.
	perGPU := p.pick(13, 12)
	gpus := p.pick(16, 8)
	scale := perGPU + lg(gpus)
	amp := ampFor(26, perGPU)
	shape := gpuCountShapes(gpus)[0]
	_, dobfs, err := weakPoint(scale, shape, amp, p.sources(), p.seed())
	if err != nil {
		return nil, err
	}
	sim := simGTEPS(dobfs, amp)
	t.Rows = append(t.Rows, []string{
		"[sim]", "this reproduction (simulated)", "GPU Cluster",
		i64(int64(scale + 13)), i64(int64(gpus)), f1(sim), f2(sim / float64(gpus)),
	})
	t.Notes = append(t.Notes, "[sim] row: local run amplified to the paper's per-GPU regime (scale mapping: internal/experiments package doc)")
	return t, nil
}

// Table2Comparison reproduces Table II with a simulated column: each paper
// row is re-run at reduced scale on the same cluster layout.
func Table2Comparison(p Params) (*Table, error) {
	t := &Table{
		ID:      "tab2",
		Title:   "comparison with previous work (paper rows + our simulation)",
		Paper:   "Table II — the paper's hardware/GTEPS comparison",
		Headers: []string{"scale", "reference", "ref GTEPS", "paper hw", "paper GTEPS", "sim GTEPS"},
		Notes: []string{
			"sim column: same layout as the paper's hardware at reduced scale, amplified to the paper regime",
		},
	}
	type simRun struct {
		shape    core.ClusterShape
		perGPU   int // local per-GPU scale
		paperPer int // paper per-GPU scale
	}
	runs := map[string]simRun{
		"Pan [5]/24":     {core.ClusterShape{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 1}, p.pick(14, 12), 24},
		"Pan [5]/25":     {core.ClusterShape{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 2}, p.pick(14, 12), 24},
		"Pan [5]/26":     {core.ClusterShape{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 4}, p.pick(14, 12), 24},
		"Bernaschi [18]": {core.ClusterShape{Nodes: p.pick(8, 4), RanksPerNode: 2, GPUsPerRank: 2}, p.pick(13, 12), 28},
		"Krajecki [20]":  {core.ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 4}, p.pick(14, 12), 26},
		"Yasui [9]":      {core.ClusterShape{Nodes: p.pick(8, 4), RanksPerNode: 2, GPUsPerRank: 2}, p.pick(13, 12), 28},
		"Buluç [16]":     {core.ClusterShape{Nodes: p.pick(8, 4), RanksPerNode: 2, GPUsPerRank: 2}, p.pick(13, 12), 28},
	}
	simCache := map[string]float64{}
	for _, row := range related.Table2() {
		key := row.Ref
		if row.Ref == "Pan [5]" {
			key = fmt.Sprintf("Pan [5]/%d", row.Scale)
		}
		r, ok := runs[key]
		if !ok {
			return nil, fmt.Errorf("tab2: no sim mapping for %q", key)
		}
		cacheKey := fmt.Sprintf("%s-%d-%d", r.shape, r.perGPU, r.paperPer)
		sim, ok := simCache[cacheKey]
		if !ok {
			scale := r.perGPU + lg(r.shape.P())
			amp := ampFor(r.paperPer, r.perGPU)
			_, dobfs, err := weakPoint(scale, r.shape, amp, p.sources(), p.seed())
			if err != nil {
				return nil, err
			}
			sim = simGTEPS(dobfs, amp)
			simCache[cacheKey] = sim
		}
		t.Rows = append(t.Rows, []string{
			i64(int64(row.Scale)), row.Ref, f1(row.RefGTEPS),
			row.PaperHW, f1(row.PaperGTEPS), f1(sim),
		})
	}
	return t, nil
}
