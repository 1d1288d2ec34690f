package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func quickParams() Params { return Params{Quick: true, Sources: 2} }

// runExp executes a registered experiment in quick mode and sanity-checks
// the table envelope.
func runExp(t *testing.T, id string) *Table {
	t.Helper()
	run, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tab, err := run(quickParams())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Fatalf("table id %q, want %q", tab.ID, id)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Headers) {
			t.Fatalf("%s row %d: %d cells, %d headers", id, i, len(row), len(tab.Headers))
		}
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), id) {
		t.Fatalf("%s: render missing id", id)
	}
	return tab
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	clean := strings.TrimSuffix(cell, "%")
	v, err := strconv.ParseFloat(clean, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "net1", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "tab1", "tab2", "wdc1", "do1",
		"abl1", "abl2", "cmp1", "cmp2", "cmp3", "cmp5", "cmp6", "cmp7", "cmp8", "app1", "mem1"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	desc := Describe()
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
		if desc[id] == "" {
			t.Errorf("missing description for %s", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup accepted unknown id")
	}
}

func TestFig5Shape(t *testing.T) {
	tab := runExp(t, "fig5")
	// As TH grows: nn share must be non-decreasing, dd share non-increasing
	// (cells are percentages).
	var prevNN, prevDD float64 = -1, 200
	for _, row := range tab.Rows {
		dd := cellFloat(t, row[1])
		nn := cellFloat(t, row[3])
		if nn < prevNN-1e-9 {
			t.Fatalf("nn share decreased at TH=%s", row[0])
		}
		if dd > prevDD+1e-9 {
			t.Fatalf("dd share increased at TH=%s", row[0])
		}
		prevNN, prevDD = nn, dd
	}
	// Last row: no delegates → everything nn.
	last := tab.Rows[len(tab.Rows)-1]
	if cellFloat(t, last[4]) != 0 {
		t.Fatalf("final TH still has delegates: %v", last)
	}
}

func TestFig6DOBeatsBFS(t *testing.T) {
	tab := runExp(t, "fig6")
	// On RMAT, DOBFS must beat plain BFS at every threshold (paper Fig 6).
	for _, row := range tab.Rows {
		bfs, dobfs := cellFloat(t, row[1]), cellFloat(t, row[2])
		if dobfs <= bfs {
			t.Fatalf("TH=%s: DOBFS %.1f not above BFS %.1f", row[0], dobfs, bfs)
		}
	}
}

func TestFig7ThresholdGrowsWithScale(t *testing.T) {
	tab := runExp(t, "fig7")
	var prevTH float64 = 0
	for _, row := range tab.Rows {
		th := cellFloat(t, row[2])
		if th < prevTH {
			t.Fatalf("suggested TH decreased at scale %s", row[0])
		}
		prevTH = th
		// Delegates stay at or below the 4n/p line.
		if del, line := cellFloat(t, row[3]), cellFloat(t, row[5]); del > line+1e-9 {
			t.Fatalf("scale %s: delegates %.2f%% above 4n/p line %.2f%%", row[0], del, line)
		}
	}
}

func TestFig8DOCutsComputation(t *testing.T) {
	tab := runExp(t, "fig8")
	// Within each layout, DO must cut computation versus BFS by ≥2×
	// (paper: ~3×).
	byLayout := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		layout, opts := row[0], row[1]
		if byLayout[layout] == nil {
			byLayout[layout] = map[string]float64{}
		}
		byLayout[layout][opts] = cellFloat(t, row[2])
	}
	for layout, m := range byLayout {
		if m["BFS+BR"] < 2*m["DO+BR"] {
			t.Fatalf("%s: BFS comp %.2f not ≥2× DO comp %.2f", layout, m["BFS+BR"], m["DO+BR"])
		}
	}
}

func TestFig9WeakScalingGrows(t *testing.T) {
	tab := runExp(t, "fig9")
	// DOBFS aggregate rate must grow with GPU count (take 2×2 layouts and
	// the 1-GPU row).
	var series []float64
	for _, row := range tab.Rows {
		if strings.Contains(row[1], "×2×2") || row[0] == "1" {
			series = append(series, cellFloat(t, row[3]))
		}
	}
	if len(series) < 3 {
		t.Fatalf("too few weak-scaling points: %d", len(series))
	}
	if series[len(series)-1] <= series[0] {
		t.Fatalf("weak scaling flat: %v", series)
	}
}

func TestFig10ComputationGrowsSlowly(t *testing.T) {
	tab := runExp(t, "fig10")
	var first, last float64
	count := 0
	for _, row := range tab.Rows {
		if row[0] != "DOBFS" {
			continue
		}
		v := cellFloat(t, row[2])
		if count == 0 {
			first = v
		}
		last = v
		count++
	}
	if count < 2 {
		t.Fatalf("too few DOBFS rows: %d", count)
	}
	// Paper: computation grows ~4× over 7 scales; allow up to 6× over our
	// shorter sweep, and require it not to blow up.
	if last > 6*first {
		t.Fatalf("computation grew %.1f× along weak scaling", last/first)
	}
}

func TestFig11StrongScalingPattern(t *testing.T) {
	tab := runExp(t, "fig11")
	// BFS rate at max GPUs ≥ BFS at min GPUs (BFS strong-scales better).
	var bfs []float64
	for _, row := range tab.Rows {
		if strings.Contains(row[1], "×2×2") {
			bfs = append(bfs, cellFloat(t, row[2]))
		}
	}
	if len(bfs) >= 2 && bfs[len(bfs)-1] < bfs[0]*0.8 {
		t.Fatalf("BFS strong scaling collapsed: %v", bfs)
	}
}

func TestFig12Fig13Friendster(t *testing.T) {
	tab12 := runExp(t, "fig12")
	// Social graph: delegate share shrinks with TH (cells are percentages).
	var prevDel float64 = 200
	for _, row := range tab12.Rows {
		del := cellFloat(t, row[4])
		if del > prevDel+1e-9 {
			t.Fatalf("delegate share grew with TH: %v", row)
		}
		prevDel = del
	}
	tab13 := runExp(t, "fig13")
	for _, row := range tab13.Rows {
		if cellFloat(t, row[2]) <= 0 {
			t.Fatalf("zero DOBFS rate at TH=%s", row[0])
		}
	}
}

func TestTable1Ratios(t *testing.T) {
	tab := runExp(t, "tab1")
	// Edge-list ratio row must show ≥2× savings (paper: ~3×).
	found := false
	for _, row := range tab.Rows {
		if row[0] == "edge list (16m)" {
			found = true
			if !strings.Contains(row[3], "ratio") {
				t.Fatalf("missing ratio cell: %v", row)
			}
			var ratio float64
			if _, err := fmtSscanf(row[3], &ratio); err != nil {
				t.Fatalf("cannot parse ratio from %q", row[3])
			}
			if ratio < 2 {
				t.Fatalf("edge-list ratio %.2f < 2", ratio)
			}
		}
	}
	if !found {
		t.Fatal("edge-list comparison row missing")
	}
}

func fmtSscanf(s string, out *float64) (int, error) {
	idx := strings.Index(s, "ratio ")
	if idx < 0 {
		return 0, strings.NewReader("").UnreadByte()
	}
	val := strings.TrimSuffix(s[idx+6:], "×")
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	*out = v
	return 1, nil
}

func TestTable2HasSimColumn(t *testing.T) {
	tab := runExp(t, "tab2")
	if len(tab.Rows) != 7 {
		t.Fatalf("tab2 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if cellFloat(t, row[5]) <= 0 {
			t.Fatalf("missing sim GTEPS in row %v", row)
		}
	}
}

func TestNet1OptimumAt4MB(t *testing.T) {
	tab := runExp(t, "net1")
	best, bestSize := 0.0, ""
	for _, row := range tab.Rows {
		if bw := cellFloat(t, row[3]); bw > best {
			best, bestSize = bw, row[0]
		}
	}
	if bestSize != "4MB" {
		t.Fatalf("optimum at %s, want 4MB", bestSize)
	}
}

func TestWDC1LongTail(t *testing.T) {
	tab := runExp(t, "wdc1")
	vals := map[string][]float64{}
	for _, row := range tab.Rows {
		vals[row[0]] = []float64{cellFloat(t, row[1]), cellFloat(t, row[2])}
	}
	// Long tail: both run hundreds of iterations.
	if vals["BFS"][1] < 60 {
		t.Fatalf("BFS iterations %.0f, want long tail", vals["BFS"][1])
	}
	// The §VI-D observation: DOBFS does not beat BFS here.
	if vals["DOBFS"][0] > vals["BFS"][0]*1.05 {
		t.Fatalf("DOBFS %.2f unexpectedly above BFS %.2f on long-tail graph",
			vals["DOBFS"][0], vals["BFS"][0])
	}
}

func TestDO1WidePlateau(t *testing.T) {
	tab := runExp(t, "do1")
	// The paper's chosen factors and neighbors should all be within 2× of
	// the best row.
	var best float64
	rates := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		rates[i] = cellFloat(t, row[3])
		if rates[i] > best {
			best = rates[i]
		}
	}
	// The paper's chosen factors and their decade neighbors (rows 2–4)
	// sit on the wide near-optimal plateau.
	for i := 2; i <= 4; i++ {
		if rates[i] < best/2 {
			t.Fatalf("row %d rate %.1f not within 2× of best %.1f", i, rates[i], best)
		}
	}
}

func TestAbl1ScalingDirections(t *testing.T) {
	tab := runExp(t, "abl1")
	// 1D-DO broadcast volume must dwarf ours at the largest GPU count.
	last := tab.Rows[len(tab.Rows)-1]
	ours := cellFloat(t, last[1])
	oneDDO := cellFloat(t, last[3])
	if oneDDO <= ours {
		t.Fatalf("1D DO broadcast %v not above ours %v at max GPUs", oneDDO, ours)
	}
}

func TestAbl2MergePathWins(t *testing.T) {
	tab := runExp(t, "abl2")
	comp := map[string]float64{}
	for _, row := range tab.Rows {
		comp[row[0]+"/"+row[1]] = cellFloat(t, row[2])
	}
	if comp["twb-dynamic (forced)/DOBFS"] <= comp["merge-path (paper)/DOBFS"] {
		t.Fatalf("forcing TWB on dd did not cost computation: %v", comp)
	}
	if comp["twb-dynamic (forced)/BFS"] <= comp["merge-path (paper)/BFS"] {
		t.Fatalf("forcing TWB on dd did not cost BFS computation: %v", comp)
	}
}

func TestApp1TrafficOrdering(t *testing.T) {
	tab := runExp(t, "app1")
	vals := map[string][]float64{}
	for _, row := range tab.Rows {
		vals[row[0]] = []float64{
			cellFloat(t, row[1]), cellFloat(t, row[2]),
			cellFloat(t, row[3]), cellFloat(t, row[4]),
		}
	}
	// §VI-D: general algorithms do more local computation than DOBFS...
	if vals["PageRank"][1] <= vals["DOBFS"][1] {
		t.Fatalf("PageRank comp %.3f not above DOBFS %.3f", vals["PageRank"][1], vals["DOBFS"][1])
	}
	// ...and ship more delegate state (64-bit scores vs 1-bit masks).
	if vals["PageRank"][3] <= vals["DOBFS"][3] {
		t.Fatalf("PageRank delegate traffic %.1f not above DOBFS %.1f",
			vals["PageRank"][3], vals["DOBFS"][3])
	}
}

func TestMem1HeadlineRow(t *testing.T) {
	tab := runExp(t, "mem1")
	// The paper's claim: scale-30 on 12 GPUs fits ONLY with degree
	// separation (not plain CSR, not an edge list).
	found := false
	for _, row := range tab.Rows {
		if row[0] == "30" && row[1] == "12" {
			found = true
			if row[5] != "true/false/false" {
				t.Fatalf("scale-30/12-GPU fits column = %q, want true/false/false", row[5])
			}
		}
	}
	if !found {
		t.Fatal("scale-30 on 12 GPUs row missing")
	}
}

func TestFig1IncludesSimPoint(t *testing.T) {
	tab := runExp(t, "fig1")
	foundPaper, foundSim := false, false
	for _, row := range tab.Rows {
		if row[0] == "[T]" {
			foundPaper = true
		}
		if row[0] == "[sim]" {
			foundSim = true
		}
	}
	if !foundPaper || !foundSim {
		t.Fatalf("fig1 missing rows: paper=%v sim=%v", foundPaper, foundSim)
	}
}

func TestCmp1Shape(t *testing.T) {
	tab := runExp(t, "cmp1")
	if len(tab.Rows) != 6 {
		t.Fatalf("cmp1 has %d rows, want 6 (2 graphs × 3 variants)", len(tab.Rows))
	}
	// Per graph: adaptive must save bytes (positive %) and cut end-to-end
	// time versus off. That it is never larger than any single scheme is
	// internal/wire's TestAdaptiveSelectsSmallest.
	byKey := map[string][]string{}
	for _, row := range tab.Rows {
		byKey[row[0]+"/"+row[1]] = row
	}
	for _, g := range []string{"rmat", "uniform"} {
		off, adaptive := byKey[g+"/off"], byKey[g+"/adaptive"]
		if off == nil || adaptive == nil {
			t.Fatalf("%s: missing off/adaptive rows", g)
		}
		if saved := cellFloat(t, adaptive[4]); saved <= 0 {
			t.Errorf("%s: adaptive saved %.2f%%, want > 0", g, saved)
		}
		if cellFloat(t, off[4]) != 0 {
			t.Errorf("%s: off row reports nonzero savings", g)
		}
		// Codec compute is charged to the model now: zero with the codec
		// off, nonzero for adaptive — and compression still wins end to
		// end despite paying for its own pack/unpack kernels.
		if oc := cellFloat(t, off[7]); oc != 0 {
			t.Errorf("%s: off row charges %.3f codec ms, want 0", g, oc)
		}
		if ac := cellFloat(t, adaptive[7]); ac <= 0 {
			t.Errorf("%s: adaptive row charges no codec time", g)
		}
		if oe, ae := cellFloat(t, off[8]), cellFloat(t, adaptive[8]); ae >= oe {
			t.Errorf("%s: adaptive elapsed %.2f ms not below off %.2f ms", g, ae, oe)
		}
	}
}

// TestCmp3HybridAtLeastBestFixed: the experiment itself enforces the
// acceptance criteria (levels bit-identical across policies, hybrid ≤ 1.05×
// the best fixed elapsed per cell); the test checks the table's structure
// and that the hybrid policy is really deciding — it must either mix
// strategies within a cell or pick different sides in different cells (the
// hierarchical exchange moved the crossover, so the quick cells land whole
// runs on one side each: butterfly at ranks=4, all-pairs at ranks=5).
func TestCmp3HybridAtLeastBestFixed(t *testing.T) {
	tab := runExp(t, "cmp3")
	// Quick mode: 1 scale × ranks {4, 5} × 3 policies.
	if len(tab.Rows) != 6 {
		t.Fatalf("cmp3 has %d rows, want 6", len(tab.Rows))
	}
	mixed := false
	var sawAP, sawBF bool
	for _, row := range tab.Rows {
		policy, split := row[2], row[3]
		var ap, bf int64
		if _, err := fmt.Sscanf(split, "%d/%d", &ap, &bf); err != nil {
			t.Fatalf("row %v: unparsable iteration split %q", row, split)
		}
		switch policy {
		case "allpairs":
			if bf != 0 {
				t.Errorf("fixed all-pairs ran %d butterfly iterations", bf)
			}
		case "butterfly":
			if ap != 0 {
				t.Errorf("fixed butterfly ran %d all-pairs iterations", ap)
			}
		case "hybrid":
			if ap > 0 && bf > 0 {
				mixed = true
			}
			sawAP = sawAP || ap > 0
			sawBF = sawBF || bf > 0
		default:
			t.Fatalf("unknown policy row %q", policy)
		}
	}
	if !mixed && !(sawAP && sawBF) {
		t.Error("hybrid picked one strategy across every cmp3 cell — policy inert")
	}
}

// TestCmp5SweepAmortizes: the multi-source ablation's hard assertions
// (bit-identical levels/parents per query, sweep gteps/query above batch at
// K ≥ 64) run inside the experiment; the test checks the table's structure
// and that the sweep's advantage grows with K.
func TestCmp5SweepAmortizes(t *testing.T) {
	tab := runExp(t, "cmp5")
	// Quick mode: K ∈ {8, 64} × {batch, sweep on all-pairs, butterfly, hybrid}.
	if len(tab.Rows) != 8 {
		t.Fatalf("cmp5 has %d rows, want 8", len(tab.Rows))
	}
	speedups := map[string]float64{}
	for _, row := range tab.Rows {
		k, mode := row[0], row[1]
		if !slices.Contains([]string{"batch", "sweep", "sweep/butterfly", "sweep/hybrid"}, mode) {
			t.Fatalf("unknown mode row %q", mode)
		}
		if mode == "sweep" {
			speedups[k] = cellFloat(t, row[7])
		}
	}
	if speedups["64"] <= 1 {
		t.Errorf("K=64 sweep speedup %.2f× not above 1", speedups["64"])
	}
	if speedups["64"] <= speedups["8"] {
		t.Errorf("sweep speedup did not grow with K: %.2f× at 8 vs %.2f× at 64",
			speedups["8"], speedups["64"])
	}
}

// TestCmp6RepairWinsSmallDeltas: the dynamic ablation's hard assertions
// (levels/parents bit-identical between repair and recompute in every cell,
// repair ≥ 1× recompute at the smallest delta) run inside the experiment;
// the test checks the table's structure and that repair's advantage shrinks
// as the delta grows.
func TestCmp6RepairWinsSmallDeltas(t *testing.T) {
	tab := runExp(t, "cmp6")
	// Quick mode: fracs {0.001, 0.01} × kinds {insert, delete, mixed}.
	if len(tab.Rows) != 6 {
		t.Fatalf("cmp6 has %d rows, want 6", len(tab.Rows))
	}
	meanSpeedup := map[string]float64{}
	for _, row := range tab.Rows {
		frac, kind := row[0], row[1]
		if kind != "insert" && kind != "delete" && kind != "mixed" {
			t.Fatalf("unknown kind row %q", kind)
		}
		if cellFloat(t, row[2]) <= 0 {
			t.Fatalf("frac=%s/%s: empty delta", frac, kind)
		}
		meanSpeedup[frac] += cellFloat(t, row[9]) / 3
	}
	if meanSpeedup["0.001"] < 1 {
		t.Errorf("smallest-delta mean speedup %.2f× below 1", meanSpeedup["0.001"])
	}
	if meanSpeedup["0.010"] > meanSpeedup["0.001"] {
		t.Errorf("repair advantage grew with delta size: %.2f× at 0.001 vs %.2f× at 0.01",
			meanSpeedup["0.001"], meanSpeedup["0.010"])
	}
}

// TestCmp2ButterflyWinsAtScale is the PR's acceptance check: at 32 ranks the
// butterfly cuts the per-rank per-iteration message count from p−1 to
// log2(p) and the simulated remote-normal time versus all-pairs (levels are
// asserted identical inside the experiment itself).
func TestCmp2ButterflyWinsAtScale(t *testing.T) {
	tab := runExp(t, "cmp2")
	// Quick mode: 2 graphs × ranks {4, 32} × 2 modes × 2 strategies.
	if len(tab.Rows) != 16 {
		t.Fatalf("cmp2 has %d rows, want 16", len(tab.Rows))
	}
	byKey := map[string][]string{}
	for _, row := range tab.Rows {
		byKey[row[0]+"/"+row[1]+"/"+row[2]+"/"+row[3]] = row
	}
	for _, g := range []string{"rmat", "uniform"} {
		for _, mode := range []string{"off", "adaptive"} {
			ap := byKey[g+"/32/"+mode+"/allpairs"]
			bf := byKey[g+"/32/"+mode+"/butterfly"]
			if ap == nil || bf == nil {
				t.Fatalf("%s/%s: missing 32-rank rows", g, mode)
			}
			if got := cellFloat(t, ap[4]); got != 31 {
				t.Errorf("%s/%s: all-pairs sends %.1f msgs/rank/iter, want p−1 = 31", g, mode, got)
			}
			if got := cellFloat(t, bf[4]); got != 5 {
				t.Errorf("%s/%s: butterfly sends %.1f msgs/rank/iter, want log2(p) = 5", g, mode, got)
			}
			if apT, bfT := cellFloat(t, ap[8]), cellFloat(t, bf[8]); bfT >= apT {
				t.Errorf("%s/%s: butterfly remote-normal %.2f ms not below all-pairs %.2f ms",
					g, mode, bfT, apT)
			}
			if cellFloat(t, ap[6]) != 0 {
				t.Errorf("%s/%s: all-pairs forwarded bytes", g, mode)
			}
			if cellFloat(t, bf[6]) <= 0 {
				t.Errorf("%s/%s: butterfly forwarded nothing", g, mode)
			}
			if apM, bfM := cellFloat(t, ap[7]), cellFloat(t, bf[7]); bfM <= apM {
				t.Errorf("%s/%s: butterfly max message %.2f MB not above all-pairs %.2f MB",
					g, mode, bfM, apM)
			}
			apC, bfC := cellFloat(t, ap[9]), cellFloat(t, bf[9])
			if mode == "off" {
				if apC != 0 || bfC != 0 {
					t.Errorf("%s/off: codec µs %.3f/%.3f, want 0 with the codec off", g, apC, bfC)
				}
			} else if bfC <= apC {
				// The per-hop re-encode makes the butterfly's codec work
				// strictly exceed all-pairs' whenever it relays anything.
				t.Errorf("%s/%s: butterfly codec %.3f µs not above all-pairs %.3f µs",
					g, mode, bfC, apC)
			}
		}
	}
}

// TestCmp7HierarchyAggregates: the hierarchical-exchange experiment's hard
// assertions (bit-identical levels, the all-pairs message count, hybrid
// within 1.05× of best fixed) run inside the experiment; the test checks the
// table structure and the NVLink accounting: every cell charges NVLink time,
// the butterfly hides some of it, and a rank's all-pairs messages per
// iteration are ranks−1 at every GPUs-per-rank count.
func TestCmp7HierarchyAggregates(t *testing.T) {
	tab := runExp(t, "cmp7")
	// Quick mode: 1 scale × 1 rank count × gpus/rank {2, 4} × 3 policies.
	if len(tab.Rows) != 6 {
		t.Fatalf("cmp7 has %d rows, want 6", len(tab.Rows))
	}
	var hidSomething bool
	for _, row := range tab.Rows {
		ranks, pgpu, policy := cellFloat(t, row[1]), row[2], row[3]
		mpi, nvlink, hidden := cellFloat(t, row[4]), cellFloat(t, row[5]), cellFloat(t, row[6])
		if nvlink <= 0 {
			t.Errorf("%s pgpu=%s charged no NVLink time", policy, pgpu)
		}
		if hidden > nvlink {
			t.Errorf("%s pgpu=%s hid %.1f µs of %.1f total", policy, pgpu, hidden, nvlink)
		}
		if policy == "butterfly" && hidden > 0 {
			hidSomething = true
		}
		if policy == "allpairs" && mpi != ranks-1 {
			t.Errorf("allpairs pgpu=%s: %.1f msg/rank/iter, want ranks−1 = %.0f", pgpu, mpi, ranks-1)
		}
	}
	if !hidSomething {
		t.Error("the butterfly never hid NVLink time in any cmp7 cell")
	}
}
