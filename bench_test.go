package gcbfs

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VI). Each benchmark regenerates its artifact through
// internal/experiments in quick mode and reports the headline metric so
// `go test -bench=.` doubles as a figure-regeneration smoke run. The CLI
// (cmd/bfsbench) runs the same experiments at full size and prints the
// tables, whose notes carry the paper's values; BENCH_*.json (cmd/bfsbench
// -json) record the measured ones from PR to PR.

import (
	"context"
	"io"
	"strconv"
	"strings"
	"testing"

	"gcbfs/internal/experiments"
)

var benchParams = experiments.Params{Quick: true, Sources: 2}

// runBench executes a registered experiment once per iteration and returns
// the final table for metric extraction.
func runBench(b *testing.B, id string) *experiments.Table {
	b.Helper()
	run, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = run(benchParams)
		if err != nil {
			b.Fatal(err)
		}
	}
	tab.Render(io.Discard)
	return tab
}

func cell(tab *experiments.Table, row, col int) float64 {
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// BenchmarkFig1RelatedWork regenerates the Fig. 1 landscape (static related
// work + our simulated point).
func BenchmarkFig1RelatedWork(b *testing.B) {
	tab := runBench(b, "fig1")
	b.ReportMetric(cell(tab, len(tab.Rows)-1, 5), "simGTEPS")
}

// BenchmarkNet1MessageSize regenerates the §VI-A1 message-size sweep
// (optimum ≈ 4 MB).
func BenchmarkNet1MessageSize(b *testing.B) {
	tab := runBench(b, "net1")
	for i, row := range tab.Rows {
		if row[0] == "4MB" {
			b.ReportMetric(cell(tab, i, 3), "GB/s@4MB")
		}
	}
}

// BenchmarkFig5Distribution regenerates the edge/delegate distribution vs
// threshold table (paper Fig. 5).
func BenchmarkFig5Distribution(b *testing.B) {
	tab := runBench(b, "fig5")
	b.ReportMetric(float64(len(tab.Rows)), "thresholds")
}

// BenchmarkFig6ThresholdSweep regenerates the rate-vs-threshold sweep
// (paper Fig. 6).
func BenchmarkFig6ThresholdSweep(b *testing.B) {
	tab := runBench(b, "fig6")
	best := 0.0
	for i := range tab.Rows {
		if v := cell(tab, i, 2); v > best {
			best = v
		}
	}
	b.ReportMetric(best, "bestDOBFS-simGTEPS")
}

// BenchmarkFig7SuggestedTH regenerates the suggested-threshold table
// (paper Fig. 7).
func BenchmarkFig7SuggestedTH(b *testing.B) {
	tab := runBench(b, "fig7")
	b.ReportMetric(cell(tab, len(tab.Rows)-1, 2), "topScaleTH")
}

// BenchmarkFig8Options regenerates the optimization-options ablation
// (paper Fig. 8).
func BenchmarkFig8Options(b *testing.B) {
	tab := runBench(b, "fig8")
	// Report the DO computation cut on the 2×2 layout.
	var bfs, do float64
	for i, row := range tab.Rows {
		if strings.Contains(row[1], "BFS") && bfs == 0 {
			bfs = cell(tab, i, 2)
		}
		if row[1] == "DO+BR" && do == 0 {
			do = cell(tab, i, 2)
		}
	}
	if do > 0 {
		b.ReportMetric(bfs/do, "DO-comp-cut")
	}
}

// BenchmarkFig9WeakScaling regenerates the weak-scaling curve (paper Fig. 9).
func BenchmarkFig9WeakScaling(b *testing.B) {
	tab := runBench(b, "fig9")
	b.ReportMetric(cell(tab, len(tab.Rows)-1, 3), "maxDOBFS-simGTEPS")
}

// BenchmarkFig10Breakdown regenerates the runtime breakdown along the
// weak-scaling curve (paper Fig. 10).
func BenchmarkFig10Breakdown(b *testing.B) {
	tab := runBench(b, "fig10")
	b.ReportMetric(cell(tab, len(tab.Rows)-1, 6), "elapsed-ms")
}

// BenchmarkFig11StrongScaling regenerates the strong-scaling curve
// (paper Fig. 11).
func BenchmarkFig11StrongScaling(b *testing.B) {
	tab := runBench(b, "fig11")
	b.ReportMetric(cell(tab, len(tab.Rows)-1, 3), "maxGPUs-DOBFS-simGTEPS")
}

// BenchmarkFig12FriendsterDist regenerates the friendster-like distribution
// table (paper Fig. 12).
func BenchmarkFig12FriendsterDist(b *testing.B) {
	tab := runBench(b, "fig12")
	b.ReportMetric(cell(tab, 0, 4), "delegates%atTH2")
}

// BenchmarkFig13FriendsterRate regenerates the friendster-like rate sweep
// (paper Fig. 13).
func BenchmarkFig13FriendsterRate(b *testing.B) {
	tab := runBench(b, "fig13")
	best := 0.0
	for i := range tab.Rows {
		if v := cell(tab, i, 2); v > best {
			best = v
		}
	}
	b.ReportMetric(best, "bestDOBFS-simGTEPS")
}

// BenchmarkTable1Memory regenerates the Table-I memory accounting.
func BenchmarkTable1Memory(b *testing.B) {
	tab := runBench(b, "tab1")
	for _, row := range tab.Rows {
		if row[0] == "edge list (16m)" {
			idx := strings.Index(row[3], "ratio ")
			v, _ := strconv.ParseFloat(strings.TrimSuffix(row[3][idx+6:], "×"), 64)
			b.ReportMetric(v, "edgelist-ratio")
		}
	}
}

// BenchmarkTable2Comparison regenerates the Table-II comparison with the
// simulated column.
func BenchmarkTable2Comparison(b *testing.B) {
	tab := runBench(b, "tab2")
	b.ReportMetric(cell(tab, 0, 5), "Pan24-simGTEPS")
}

// BenchmarkWDCLongTail regenerates the §VI-D long-tail result (BFS ≥ DOBFS).
func BenchmarkWDCLongTail(b *testing.B) {
	tab := runBench(b, "wdc1")
	var bfs, do float64
	for i, row := range tab.Rows {
		if row[0] == "BFS" {
			bfs = cell(tab, i, 1)
		}
		if row[0] == "DOBFS" {
			do = cell(tab, i, 1)
		}
	}
	if do > 0 {
		b.ReportMetric(bfs/do, "BFS-over-DOBFS")
	}
}

// BenchmarkDO1FactorSweep regenerates the §VI-B direction-factor sweep.
func BenchmarkDO1FactorSweep(b *testing.B) {
	tab := runBench(b, "do1")
	b.ReportMetric(cell(tab, 3, 3), "paperFactors-simGTEPS")
}

// BenchmarkAbl1CommModel regenerates the §II-B communication-model
// comparison (ours vs 1D vs 2D).
func BenchmarkAbl1CommModel(b *testing.B) {
	tab := runBench(b, "abl1")
	last := len(tab.Rows) - 1
	ours, oneDDO := cell(tab, last, 1), cell(tab, last, 3)
	if ours > 0 {
		b.ReportMetric(oneDDO/ours, "1DDO-vs-ours-volume")
	}
}

// BenchmarkCmp1Compression regenerates the frontier-exchange codec ablation
// (internal/wire) and reports adaptive's byte savings on the R-MAT graph.
// Per-codec encode/decode microbenchmarks live in internal/wire.
func BenchmarkCmp1Compression(b *testing.B) {
	tab := runBench(b, "cmp1")
	for i, row := range tab.Rows {
		if row[0] == "rmat" && row[1] == "adaptive" {
			b.ReportMetric(cell(tab, i, 4), "adaptive-saved%")
		}
	}
}

// BenchmarkCmp2Exchange regenerates the exchange-topology ablation
// (all-pairs vs butterfly) and reports the butterfly's remote-normal
// speedup at the largest rank count on the R-MAT graph.
func BenchmarkCmp2Exchange(b *testing.B) {
	tab := runBench(b, "cmp2")
	remote := map[string]float64{}
	maxRanks := 0
	for i, row := range tab.Rows {
		if row[0] != "rmat" || row[2] != "adaptive" {
			continue
		}
		remote[row[1]+"/"+row[3]] = cell(tab, i, 8)
		if r, err := strconv.Atoi(row[1]); err == nil && r > maxRanks {
			maxRanks = r
		}
	}
	key := strconv.Itoa(maxRanks)
	if bf := remote[key+"/butterfly"]; bf > 0 {
		b.ReportMetric(remote[key+"/allpairs"]/bf, "butterfly-speedup-remote-normal")
	}
}

// BenchmarkButterflyExchange is the exchange microbenchmark: one BFS query
// per iteration through a shared service on 8 ranks with the adaptive codec
// over the butterfly. hidden-µs is the codec time its pipelined hops reclaim
// from remote-normal.
func BenchmarkButterflyExchange(b *testing.B) {
	g := RMAT(13)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}))
	if err != nil {
		b.Fatal(err)
	}
	src := Sources(g, 1, 9)[0]
	var remote, hidden float64
	for i := 0; i < b.N; i++ {
		r, err := svc.Run(context.Background(), src,
			WithExchange(ExchangeButterfly),
			WithCompression(CompressionAdaptive))
		if err != nil {
			b.Fatal(err)
		}
		remote = r.RemoteNormal
		hidden = r.HiddenCodecSeconds
	}
	b.ReportMetric(remote*1e6, "remote-normal-µs")
	b.ReportMetric(hidden*1e6, "hidden-codec-µs")
}

// BenchmarkAbl2LoadBalance regenerates the §IV-A strategy ablation
// (merge-path vs forced TWB on the dd subgraph).
func BenchmarkAbl2LoadBalance(b *testing.B) {
	tab := runBench(b, "abl2")
	comp := map[string]float64{}
	for i, row := range tab.Rows {
		comp[row[0]+"/"+row[1]] = cell(tab, i, 2)
	}
	if base := comp["merge-path (paper)/DOBFS"]; base > 0 {
		b.ReportMetric(comp["twb-dynamic (forced)/DOBFS"]/base, "TWB-penalty")
	}
}

// BenchmarkApp1BeyondBFS regenerates the §VI-D beyond-BFS comparison
// (PageRank and connected components on the delegate substrate).
func BenchmarkApp1BeyondBFS(b *testing.B) {
	tab := runBench(b, "app1")
	vals := map[string]float64{}
	for i, row := range tab.Rows {
		vals[row[0]] = cell(tab, i, 4)
	}
	if bfs := vals["DOBFS"]; bfs > 0 {
		b.ReportMetric(vals["PageRank"]/bfs, "PR-delegate-traffic-x")
	}
}

// BenchmarkMem1Capacity regenerates the §VI-C device-memory capacity table
// (scale-30 fits 12 GPUs only with degree separation).
func BenchmarkMem1Capacity(b *testing.B) {
	tab := runBench(b, "mem1")
	for _, row := range tab.Rows {
		if row[0] == "30" && row[1] == "12" && row[5] == "true/false/false" {
			b.ReportMetric(1, "scale30-fits-12GPUs")
		}
	}
}
