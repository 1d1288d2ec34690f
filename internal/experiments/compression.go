package experiments

import (
	"fmt"

	"gcbfs/internal/core"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// uniformGraph returns a cached uniform-degree random graph (the RMAT
// recursion with equal quadrant probabilities is an Erdős–Rényi-style
// generator), the skew-free counterpart to the Graph500 instance.
func uniformGraph(scale int) *graph.EdgeList {
	key := fmt.Sprintf("uniform-%d", scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if el, ok := graphCache[key]; ok {
		return el
	}
	p := rmat.DefaultParams(scale)
	p.A, p.B, p.C, p.D = 0.25, 0.25, 0.25, 0.25
	el := rmat.Generate(p)
	if scale <= 18 {
		graphCache[key] = el
	}
	return el
}

// Cmp1Compression ablates the frontier-exchange codec (internal/wire):
// bytes on the wire and end-to-end simulated time with the codec off (the
// paper's fixed-width packing) and adaptive, with and without send-bin
// uniquification, on the skewed Graph500 R-MAT graph and on a uniform random
// graph. The schemes column shows which of raw, delta and bitmap the
// adaptive blocks took. The delegate cap is tightened to n/8 so the normal
// exchange — the traffic the codec targets — carries real volume at local
// scales; results are identical across modes by construction (asserted by
// the engine tests).
func Cmp1Compression(p Params) (*Table, error) {
	scale := p.pick(15, 12)
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	amp := ampFor(26, scale-3)
	t := &Table{
		ID:    "cmp1",
		Title: fmt.Sprintf("frontier-exchange compression ablation, scale %d, %s", scale, shape),
		Paper: "beyond the paper — adaptive frontier compression à la Romera et al. / ButterFly BFS",
		Headers: []string{"graph", "mode", "raw kB", "wire kB", "saved",
			"schemes r/d/b", "remote-normal ms", "codec µs", "elapsed ms"},
		Notes: []string{
			"raw kB is the fixed-width 4·|ids| equivalent; wire kB includes headers and checksums",
			"adaptive writes each block in the smallest of raw, delta and bitmap by exact size, so it is never larger than any one scheme; schemes r/d/b counts the blocks of each",
			"adaptive+U row: uniquified bins are duplicate-free, making bitmap eligible (delta still wins at small local id spaces)",
			"codec µs is the pack/unpack compute charged at simgpu CodecRate, included in remote-normal ms (0 with the codec off)",
		},
	}

	type variant struct {
		name     string
		mode     wire.Mode
		uniquify bool
	}
	variants := []variant{
		{"off", wire.ModeOff, false},
		{"adaptive", wire.ModeAdaptive, false},
		{"adaptive+U", wire.ModeAdaptive, true},
	}
	graphs := []struct {
		name string
		el   *graph.EdgeList
	}{
		{"rmat", rmatGraph(scale)},
		{"uniform", uniformGraph(scale)},
	}

	for _, g := range graphs {
		// suggestTH caps d at 4n/p; passing p=32 tightens the cap to n/8.
		th := suggestTH(g.el, 32)
		sources := pickSources(g.el.OutDegrees(), p.sources(), p.seed())
		for _, v := range variants {
			opts := core.DefaultOptions()
			opts.Compression = v.mode
			opts.Uniquify = v.uniquify
			opts.WorkAmplification = amp
			opts.CollectLevels = false
			e, _, err := buildPlan(g.el, shape, th, opts)
			if err != nil {
				return nil, err
			}
			results, err := runAll(e, sources)
			if err != nil {
				return nil, err
			}
			var w metrics.WireStats
			var remoteNormal, elapsed float64
			for _, r := range results {
				w.Accumulate(r.Wire)
				remoteNormal += r.Parts.RemoteNormal
				elapsed += r.SimSeconds
			}
			n := float64(len(results))
			t.Rows = append(t.Rows, []string{
				g.name, v.name,
				f1(float64(w.RawBytes) / 1024), f1(float64(w.CompressedBytes) / 1024),
				pct(w.Savings()),
				fmt.Sprintf("%d/%d/%d", w.SchemeRaw, w.SchemeDelta, w.SchemeBitmap),
				ms(remoteNormal / n), us(w.CodecSeconds / n), ms(elapsed / n),
			})
		}
	}
	return t, nil
}
