// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) on the simulated cluster. Each experiment has an ID
// (fig5..fig13, tab1, tab2, net1, wdc1, do1, abl1, fig1), a Runner that
// produces a rendered table, and notes recording the paper→local scale
// substitutions and the paper-reported values the measured ones stand
// against; `bfsbench -exp <id>` prints it, and BENCH_*.json (bfsbench -json)
// track the pinned cells from PR to PR.
//
// Scale mapping: the paper runs RMAT scales 24–33 on P100s; locally we run
// scales ~11–20 and set the engine's WorkAmplification to
// 2^(paperPerGPUScale − localPerGPUScale), which puts each simulated GPU in
// the paper's workload regime (see core.Options.WorkAmplification). Reported
// "sim GTEPS" are rates of the amplified graph: raw GTEPS × amplification.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"gcbfs/internal/core"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
)

// Params tunes experiment size. Quick mode shrinks scales and source counts
// for use in the bench harness; full mode is the CLI default.
type Params struct {
	Quick   bool
	Sources int   // BFS runs per data point; 0 = default
	Seed    int64 // source-selection seed; 0 = default
}

func (p Params) sources() int {
	if p.Sources > 0 {
		return p.Sources
	}
	if p.Quick {
		return 3
	}
	return 6
}

func (p Params) seed() int64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return 20180405 // the paper's arXiv v2 date
}

// pick returns quick or full value.
func (p Params) pick(full, quick int) int {
	if p.Quick {
		return quick
	}
	return full
}

// Table is a rendered experiment artifact.
type Table struct {
	ID      string
	Title   string
	Paper   string // what the paper artifact reports
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner produces one experiment's table.
type Runner func(p Params) (*Table, error)

// registry holds all experiments in presentation order.
var registry = []struct {
	ID     string
	Run    Runner
	Remark string
}{
	{"fig1", Figure1, "related-work scatter + our point"},
	{"net1", Net1MessageSize, "§VI-A1 message-size sweep"},
	{"fig5", Fig5Distribution, "edge/delegate % vs degree threshold (RMAT)"},
	{"fig6", Fig6ThresholdSweep, "traversal rate vs degree threshold (RMAT)"},
	{"fig7", Fig7SuggestedTH, "suggested thresholds per scale"},
	{"fig8", Fig8Options, "optimization options ablation"},
	{"fig9", Fig9WeakScaling, "weak scaling to 64+ GPUs"},
	{"fig10", Fig10Breakdown, "runtime breakdown along weak scaling"},
	{"fig11", Fig11StrongScaling, "strong scaling on a fixed graph"},
	{"fig12", Fig12FriendsterDist, "friendster-like edge/delegate %"},
	{"fig13", Fig13FriendsterRate, "friendster-like traversal rates"},
	{"tab1", Table1Memory, "Table I memory accounting"},
	{"tab2", Table2Comparison, "Table II comparison"},
	{"wdc1", WDC1LongTail, "§VI-D WDC long-tail behaviour"},
	{"do1", DO1FactorSweep, "§VI-B direction-factor sweep"},
	{"abl1", Abl1CommModel, "§II-B communication-model ablation"},
	{"abl2", Abl2LoadBalance, "§IV-A load-balance strategy ablation"},
	{"cmp1", Cmp1Compression, "frontier-exchange compression ablation (internal/wire)"},
	{"cmp2", Cmp2Exchange, "exchange-topology ablation: all-pairs vs butterfly (internal/core/exchange.go)"},
	{"cmp3", Cmp3Hybrid, "exchange-policy ablation: fixed strategies vs per-iteration hybrid (internal/core/policy.go)"},
	{"cmp5", Cmp5MultiSource, "multi-source sweep ablation: MS-BFS shared traversal vs independent batch queries (internal/core/sweep.go)"},
	{"cmp6", Cmp6Dynamic, "dynamic-graph ablation: delta BFS repair vs full recompute across edge-delta sizes (internal/delta, internal/core/repair.go)"},
	{"cmp7", Cmp7Hierarchy, "hierarchical exchange: intra-rank NVLink aggregation across policies and GPUs per rank (internal/core/exchange.go)"},
	{"cmp8", Cmp8Chaos, "chaos ablation: fault kind × rate × strategy under contain/retry/degrade (internal/faults, internal/core containment)"},
	{"app1", App1BeyondBFS, "§VI-D beyond-BFS: PageRank and components"},
	{"mem1", Mem1Capacity, "§VI-C device-memory capacity per representation"},
}

// IDs lists experiment ids in presentation order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Describe returns a one-line description per experiment id.
func Describe() map[string]string {
	out := map[string]string{}
	for _, e := range registry {
		out[e.ID] = e.Remark
	}
	return out
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// RunAll executes every experiment and renders it to w.
func RunAll(p Params, w io.Writer) error {
	for _, e := range registry {
		t, err := e.Run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		t.Render(w)
	}
	return nil
}

// ---- shared helpers ----

var (
	cacheMu    sync.Mutex
	graphCache = map[string]*graph.EdgeList{}
)

// rmatGraph returns a cached Graph500 RMAT instance (small scales only, so
// repeated experiments don't regenerate).
func rmatGraph(scale int) *graph.EdgeList {
	key := fmt.Sprintf("rmat-%d", scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if el, ok := graphCache[key]; ok {
		return el
	}
	el := rmat.Generate(rmat.DefaultParams(scale))
	if scale <= 18 {
		graphCache[key] = el
	}
	return el
}

// pickSources selects up to k distinct positive-degree vertices, sorted
// ascending. When the graph has no more candidates than requested it returns
// them all directly — the rejection loop below must otherwise hit every
// eligible vertex by chance (and spins forever when k exceeds them, the bug
// graph.PickSources guards the public API against).
func pickSources(deg []int64, k int, seed int64) []int64 {
	eligible := 0
	for _, d := range deg {
		if d > 0 {
			eligible++
		}
	}
	if k >= eligible {
		out := make([]int64, 0, eligible)
		for v, d := range deg {
			if d > 0 {
				out = append(out, int64(v))
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	var out []int64
	seen := map[int64]bool{}
	n := int64(len(deg))
	for len(out) < k {
		v := rng.Int63n(n)
		if deg[v] > 0 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// buildPlan partitions and instantiates a query plan in one step.
func buildPlan(el *graph.EdgeList, shape core.ClusterShape, th int64, opts core.Options) (*core.Plan, *partition.Subgraphs, error) {
	sep := partition.Separate(el, th)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		return nil, nil, err
	}
	pl, err := core.NewPlan(sg, shape, opts)
	if err != nil {
		return nil, nil, err
	}
	return pl, sg, nil
}

// expParallelism is the in-flight query count every experiment batch uses —
// results are bit-identical to a serial loop by the Plan/Session contract,
// so this only shortens wall-clock time.
const expParallelism = 4

// runOne executes a single source on the plan with no per-query overrides.
func runOne(pl *core.Plan, src int64) (*metrics.RunResult, error) {
	return pl.Run(context.Background(), src, core.Overrides{})
}

// runAll executes every source through the plan's concurrent batch path
// (source-ordered, deterministic results).
func runAll(pl *core.Plan, sources []int64) ([]*metrics.RunResult, error) {
	return pl.RunBatch(context.Background(), sources, expParallelism, core.Overrides{})
}

// suggestTH applies the paper's tuning guidance: keep d at or under 4n/p
// ("we keep d under 4n/p in practice", §VI-B). At small p this permits a
// delegate-heavy graph, which is exactly what the algorithm wants there —
// with few ranks the mask reduction is nearly free.
func suggestTH(el *graph.EdgeList, p int) int64 {
	return partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(p))
}

// ampFor computes 2^(paperPerGPUScale − localPerGPUScale), the timing-model
// amplification that puts local runs in the paper's per-GPU regime.
func ampFor(paperPerGPU, localPerGPU int) float64 {
	diff := paperPerGPU - localPerGPU
	if diff <= 0 {
		return 1
	}
	return float64(int64(1) << uint(diff))
}

// measure runs the plan over the sources (batched) and aggregates.
func measure(pl *core.Plan, sources []int64) (metrics.Aggregate, error) {
	results, err := runAll(pl, sources)
	if err != nil {
		return metrics.Aggregate{}, err
	}
	return metrics.AggregateRuns(results), nil
}

// simGTEPS converts an aggregate rate to the amplified (simulated) graph's
// rate.
func simGTEPS(agg metrics.Aggregate, amp float64) float64 { return agg.GTEPS * amp }

func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
func ms(x float64) string  { return fmt.Sprintf("%.2f", x*1e3) }
func us(x float64) string  { return fmt.Sprintf("%.2f", x*1e6) }
func i64(x int64) string   { return fmt.Sprintf("%d", x) }

// gpuCountShapes returns the two hardware layouts the paper compares
// (∗×2×2 and ∗×1×4) for a GPU count divisible by 4, or the natural shapes
// for 1 and 2 GPUs.
func gpuCountShapes(gpus int) []core.ClusterShape {
	switch {
	case gpus == 1:
		return []core.ClusterShape{{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 1}}
	case gpus == 2:
		return []core.ClusterShape{{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 2}}
	case gpus%4 == 0:
		return []core.ClusterShape{
			{Nodes: gpus / 4, RanksPerNode: 2, GPUsPerRank: 2},
			{Nodes: gpus / 4, RanksPerNode: 1, GPUsPerRank: 4},
		}
	default:
		return []core.ClusterShape{{Nodes: gpus, RanksPerNode: 1, GPUsPerRank: 1}}
	}
}
