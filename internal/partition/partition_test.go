package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/rmat"
)

func TestConfigOwnership(t *testing.T) {
	cfg := Config{Ranks: 3, GPUsPerRank: 2}
	if cfg.P() != 6 {
		t.Fatalf("P = %d", cfg.P())
	}
	// v=17: P(v)=17%3=2, G(v)=(17/3)%2=5%2=1, local=17/6=2.
	if cfg.OwnerRank(17) != 2 || cfg.OwnerSlot(17) != 1 {
		t.Fatalf("owner(17) = rank %d slot %d", cfg.OwnerRank(17), cfg.OwnerSlot(17))
	}
	if cfg.LocalID(17) != 2 {
		t.Fatalf("LocalID(17) = %d", cfg.LocalID(17))
	}
	if got := cfg.GlobalID(2, 2, 1); got != 17 {
		t.Fatalf("GlobalID(2,2,1) = %d", got)
	}
}

func TestConfigValidate(t *testing.T) {
	if (Config{Ranks: 0, GPUsPerRank: 1}).Validate() == nil {
		t.Fatal("accepted zero ranks")
	}
	if (Config{Ranks: 1, GPUsPerRank: 0}).Validate() == nil {
		t.Fatal("accepted zero gpus")
	}
	if (Config{Ranks: 2, GPUsPerRank: 2}).Validate() != nil {
		t.Fatal("rejected valid config")
	}
}

// Property: GlobalID ∘ (LocalID, OwnerRank, OwnerSlot) is the identity.
func TestQuickOwnershipRoundTrip(t *testing.T) {
	f := func(vRaw uint32, ranksRaw, gpusRaw uint8) bool {
		cfg := Config{Ranks: int(ranksRaw%7) + 1, GPUsPerRank: int(gpusRaw%5) + 1}
		v := int64(vRaw)
		return cfg.GlobalID(cfg.LocalID(v), cfg.OwnerRank(v), cfg.OwnerSlot(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalCountPartitionsN(t *testing.T) {
	for _, n := range []int64{1, 7, 64, 1000, 1023} {
		for _, cfg := range []Config{{1, 1}, {2, 2}, {3, 2}, {5, 3}} {
			var sum int64
			for r := 0; r < cfg.Ranks; r++ {
				for s := 0; s < cfg.GPUsPerRank; s++ {
					sum += cfg.LocalCount(n, r, s)
				}
			}
			if sum != n {
				t.Fatalf("n=%d cfg=%+v: local counts sum to %d", n, cfg, sum)
			}
		}
	}
}

func TestSeparateStar(t *testing.T) {
	el := gen.Star(10) // hub 0 has degree 9, leaves 1
	s := Separate(el, 5)
	if s.D() != 1 {
		t.Fatalf("D = %d, want 1", s.D())
	}
	if !s.IsDelegate(0) || s.IsDelegate(1) {
		t.Fatal("wrong delegate set")
	}
	if s.DelegateGlobal[0] != 0 {
		t.Fatalf("DelegateGlobal = %v", s.DelegateGlobal)
	}
}

func TestSeparateThresholdBoundary(t *testing.T) {
	// Degree exactly TH stays normal ("more than TH direct neighbors").
	el := gen.Star(6) // hub degree 5
	if s := Separate(el, 5); s.D() != 0 {
		t.Fatal("degree == TH must stay normal")
	}
	if s := Separate(el, 4); s.D() != 1 {
		t.Fatal("degree > TH must become delegate")
	}
}

func TestSeparateExtremes(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	if s := Separate(el, 1<<40); s.D() != 0 {
		t.Fatal("TH=inf should create no delegates")
	}
	s := Separate(el, 0)
	deg := el.OutDegrees()
	var nonzero int64
	for _, d := range deg {
		if d > 0 {
			nonzero++
		}
	}
	if s.D() != nonzero {
		t.Fatalf("TH=0: D=%d, want %d (all non-isolated)", s.D(), nonzero)
	}
}

// Separate is SeparateDegrees over the edge list's own count.
func TestSeparateDegreesMatchesSeparate(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(8))
	for _, th := range []int64{0, 3, 16, 1 << 40} {
		if got, want := SeparateDegrees(el.OutDegrees(), th), Separate(el, th); !reflect.DeepEqual(got, want) {
			t.Fatalf("TH=%d: SeparateDegrees differs from Separate", th)
		}
	}
}

func TestRouteCategories(t *testing.T) {
	el := graph.NewEdgeList(8)
	// Make 0 and 1 delegates (degree 3 each), 2..7 normal.
	for _, v := range []int64{2, 3, 4} {
		el.Add(0, v)
		el.Add(v, 0)
	}
	for _, v := range []int64{5, 6, 7} {
		el.Add(1, v)
		el.Add(v, 1)
	}
	el.Add(2, 3)
	el.Add(3, 2)
	el.Add(0, 1)
	el.Add(1, 0)
	s := Separate(el, 2)
	if s.D() != 2 {
		t.Fatalf("D = %d", s.D())
	}
	cfg := Config{Ranks: 2, GPUsPerRank: 2}

	gpu, cat := Route(cfg, s, 2, 3) // normal→normal: owner(2)
	if cat != NN || gpu != cfg.OwnerGPU(2) {
		t.Fatalf("nn: gpu=%d cat=%v", gpu, cat)
	}
	gpu, cat = Route(cfg, s, 2, 0) // normal→delegate: owner(2)
	if cat != ND || gpu != cfg.OwnerGPU(2) {
		t.Fatalf("nd: gpu=%d cat=%v", gpu, cat)
	}
	gpu, cat = Route(cfg, s, 0, 2) // delegate→normal: owner(2)
	if cat != DN || gpu != cfg.OwnerGPU(2) {
		t.Fatalf("dn: gpu=%d cat=%v", gpu, cat)
	}
	// 0 and 1 have degree 4 each (3 leaves + each other) → tie → min id 0.
	gpu, cat = Route(cfg, s, 0, 1)
	if cat != DD || gpu != cfg.OwnerGPU(0) {
		t.Fatalf("dd tie: gpu=%d cat=%v", gpu, cat)
	}
	gpu2, _ := Route(cfg, s, 1, 0)
	if gpu2 != gpu {
		t.Fatal("dd edge pair split across GPUs")
	}
}

func TestRouteDegreePreference(t *testing.T) {
	el := graph.NewEdgeList(10)
	// Delegate 0 with degree 5, delegate 1 with degree 3.
	for _, v := range []int64{2, 3, 4, 5} {
		el.Add(0, v)
		el.Add(v, 0)
	}
	for _, v := range []int64{6, 7} {
		el.Add(1, v)
		el.Add(v, 1)
	}
	el.Add(0, 1)
	el.Add(1, 0)
	s := Separate(el, 2)
	cfg := Config{Ranks: 3, GPUsPerRank: 1}
	// deg(0)=5 > deg(1)=3 → edge goes to owner of 1 (the lower degree).
	gpu, cat := Route(cfg, s, 0, 1)
	if cat != DD || gpu != cfg.OwnerGPU(1) {
		t.Fatalf("dd: gpu=%d want owner(1)=%d", gpu, cfg.OwnerGPU(1))
	}
	gpu2, _ := Route(cfg, s, 1, 0)
	if gpu2 != gpu {
		t.Fatal("dd pair not colocated")
	}
}

func distributeRMAT(t testing.TB, scale int, th int64, cfg Config) (*graph.EdgeList, *Subgraphs) {
	t.Helper()
	el := rmat.Generate(rmat.DefaultParams(scale))
	s := Separate(el, th)
	sg, err := Distribute(el, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return el, sg
}

// Invariant: every edge is placed on exactly one GPU, in exactly one
// category, and per-category counts match a recount via Route.
func TestDistributeConservation(t *testing.T) {
	el, sg := distributeRMAT(t, 10, 8, Config{Ranks: 3, GPUsPerRank: 2})
	var stored int64
	for _, g := range sg.GPUs {
		stored += g.NN.M() + g.ND.M() + g.DN.M() + g.DD.M()
	}
	if stored != el.M() {
		t.Fatalf("stored %d edges, graph has %d", stored, el.M())
	}
	if sg.CountNN+sg.CountND+sg.CountDN+sg.CountDD != el.M() {
		t.Fatal("category counts do not sum to M")
	}
}

// Invariant: the multiset of edges can be reconstructed exactly from the
// four subgraphs on all GPUs.
func TestDistributeRoundTrip(t *testing.T) {
	el, sg := distributeRMAT(t, 9, 6, Config{Ranks: 2, GPUsPerRank: 2})
	cfg := sg.Cfg
	sep := sg.Sep
	got := map[graph.Edge]int{}
	for _, g := range sg.GPUs {
		for row := int64(0); row < g.NumLocal; row++ {
			u := cfg.GlobalID(uint32(row), g.Rank, g.Slot)
			for _, v := range g.NN.Neighbors(row) {
				got[graph.Edge{U: u, V: v}]++
			}
			for _, dv := range g.ND.Neighbors(row) {
				got[graph.Edge{U: u, V: sep.DelegateGlobal[dv]}]++
			}
		}
		for di := int64(0); di < sg.D(); di++ {
			u := sep.DelegateGlobal[di]
			for _, lv := range g.DN.Neighbors(di) {
				got[graph.Edge{U: u, V: cfg.GlobalID(lv, g.Rank, g.Slot)}]++
			}
			for _, dv := range g.DD.Neighbors(di) {
				got[graph.Edge{U: u, V: sep.DelegateGlobal[dv]}]++
			}
		}
	}
	want := map[graph.Edge]int{}
	for _, e := range el.Edges {
		want[e]++
	}
	if len(got) != len(want) {
		t.Fatalf("distinct edges: got %d want %d", len(got), len(want))
	}
	for e, c := range want {
		if got[e] != c {
			t.Fatalf("edge %v: got %d copies, want %d", e, got[e], c)
		}
	}
}

// Invariant (paper §III-B "Symmetric"): on each GPU, the nd/dn and dd
// subgraphs are symmetric — every stored non-nn edge's reverse is stored on
// the same GPU.
func TestDistributeSymmetry(t *testing.T) {
	_, sg := distributeRMAT(t, 9, 4, Config{Ranks: 3, GPUsPerRank: 2})
	for _, g := range sg.GPUs {
		// nd ↔ dn pairing.
		ndSet := map[[2]uint32]int{}
		for row := int64(0); row < g.NumLocal; row++ {
			for _, dv := range g.ND.Neighbors(row) {
				ndSet[[2]uint32{uint32(row), dv}]++
			}
		}
		dnSet := map[[2]uint32]int{}
		for di := int64(0); di < sg.D(); di++ {
			for _, lv := range g.DN.Neighbors(di) {
				dnSet[[2]uint32{lv, uint32(di)}]++
			}
		}
		if len(ndSet) != len(dnSet) {
			t.Fatalf("gpu %d: nd/dn asymmetric (%d vs %d distinct pairs)", g.GPU, len(ndSet), len(dnSet))
		}
		for k, c := range ndSet {
			if dnSet[k] != c {
				t.Fatalf("gpu %d: nd pair %v count %d, dn has %d", g.GPU, k, c, dnSet[k])
			}
		}
		// dd self-symmetry.
		ddSet := map[[2]uint32]int{}
		for di := int64(0); di < sg.D(); di++ {
			for _, dv := range g.DD.Neighbors(di) {
				ddSet[[2]uint32{uint32(di), dv}]++
			}
		}
		for k, c := range ddSet {
			if ddSet[[2]uint32{k[1], k[0]}] != c {
				t.Fatalf("gpu %d: dd edge %v lacks mirror", g.GPU, k)
			}
		}
	}
}

// Invariant: dn destinations and nn/nd sources are local to the GPU.
func TestDistributeLocality(t *testing.T) {
	_, sg := distributeRMAT(t, 9, 6, Config{Ranks: 2, GPUsPerRank: 3})
	for _, g := range sg.GPUs {
		for row := int64(0); row < g.NumLocal; row++ {
			if g.NN.Degree(row) > 0 || g.ND.Degree(row) > 0 {
				v := sg.Cfg.GlobalID(uint32(row), g.Rank, g.Slot)
				if sg.Cfg.OwnerGPU(v) != g.GPU {
					t.Fatalf("gpu %d stores row for non-owned vertex %d", g.GPU, v)
				}
				if sg.Sep.IsDelegate(v) {
					t.Fatalf("gpu %d has nn/nd edges sourced at delegate %d", g.GPU, v)
				}
			}
		}
		for di := int64(0); di < sg.D(); di++ {
			for _, lv := range g.DN.Neighbors(di) {
				if int64(lv) >= g.NumLocal {
					t.Fatalf("gpu %d: dn destination %d out of local range %d", g.GPU, lv, g.NumLocal)
				}
			}
		}
	}
}

func TestSourceStructures(t *testing.T) {
	_, sg := distributeRMAT(t, 9, 6, Config{Ranks: 2, GPUsPerRank: 2})
	for _, g := range sg.GPUs {
		seen := map[uint32]bool{}
		for _, row := range g.NDSources {
			if g.ND.Degree(int64(row)) == 0 {
				t.Fatalf("gpu %d: NDSources contains row %d with no nd edges", g.GPU, row)
			}
			if seen[row] {
				t.Fatalf("gpu %d: duplicate nd source %d", g.GPU, row)
			}
			seen[row] = true
		}
		for row := int64(0); row < g.NumLocal; row++ {
			if g.ND.Degree(row) > 0 && !seen[uint32(row)] {
				t.Fatalf("gpu %d: row %d missing from NDSources", g.GPU, row)
			}
		}
		for di := int64(0); di < sg.D(); di++ {
			if (g.DD.Degree(di) > 0) != g.DDSourceMask.Get(di) {
				t.Fatalf("gpu %d: DDSourceMask wrong at %d", g.GPU, di)
			}
			if (g.DN.Degree(di) > 0) != g.DNSourceMask.Get(di) {
				t.Fatalf("gpu %d: DNSourceMask wrong at %d", g.GPU, di)
			}
		}
	}
}

// Property: distribution invariants hold across random graphs and shapes.
func TestQuickDistributeInvariants(t *testing.T) {
	f := func(seed int64, ranksRaw, gpusRaw, thRaw uint8) bool {
		cfg := Config{Ranks: int(ranksRaw%4) + 1, GPUsPerRank: int(gpusRaw%3) + 1}
		th := int64(thRaw % 16)
		rng := rand.New(rand.NewSource(seed))
		n := int64(rng.Intn(60) + 2)
		base := graph.NewEdgeList(n)
		for i := 0; i < rng.Intn(150); i++ {
			base.Add(rng.Int63n(n), rng.Int63n(n))
		}
		el := base.Symmetrize()
		s := Separate(el, th)
		sg, err := Distribute(el, s, cfg)
		if err != nil {
			return false
		}
		var stored int64
		for _, g := range sg.GPUs {
			stored += g.NN.M() + g.ND.M() + g.DN.M() + g.DD.M()
		}
		if stored != el.M() {
			return false
		}
		// Measured memory total must be ≥ formula (sentinel slack) and
		// within 8*(2p + 2) bytes per extra sentinel row entries.
		mem := sg.Memory().Total()
		pred := sg.PredictedTotal()
		slack := int64(sg.Cfg.P())*16 + 16
		return mem >= pred-slack && mem <= pred+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	_, sg := distributeRMAT(t, 12, 32, Config{Ranks: 2, GPUsPerRank: 2})
	mem := sg.Memory()
	// Column bytes are exact: nn 8/edge, others 4/edge.
	if mem.NNCols != 8*sg.CountNN {
		t.Fatalf("NNCols = %d, want %d", mem.NNCols, 8*sg.CountNN)
	}
	if mem.NDCols != 4*sg.CountND || mem.DNCols != 4*sg.CountDN || mem.DDCols != 4*sg.CountDD {
		t.Fatal("32-bit column accounting wrong")
	}
	// dn/dd row bytes: d rows × 4 bytes per GPU (Table I).
	wantDRows := int64(sg.Cfg.P()) * sg.D() * 4
	if mem.DNRows != wantDRows || mem.DDRows != wantDRows {
		t.Fatalf("delegate row bytes = %d/%d, want %d", mem.DNRows, mem.DDRows, wantDRows)
	}
	// The headline claim: under the paper's TH guidance the representation
	// is far smaller than a 16m edge list (about one third at tuned TH).
	if got, lim := mem.Total(), sg.EdgeListBytes(); got >= lim/2 {
		t.Fatalf("memory %d not < half of edge list %d", got, lim)
	}
}

func TestBalanceRMAT(t *testing.T) {
	_, sg := distributeRMAT(t, 12, 32, Config{Ranks: 4, GPUsPerRank: 2})
	if r := sg.BalanceRatio(); r > 1.5 {
		t.Fatalf("balance ratio %.2f > 1.5 — distributor not balanced", r)
	}
}

func TestDistributeErrors(t *testing.T) {
	el := gen.Path(10)
	s := Separate(el, 100)
	if _, err := Distribute(el, s, Config{Ranks: 0, GPUsPerRank: 1}); err == nil {
		t.Fatal("accepted bad config")
	}
	other := gen.Path(11)
	if _, err := Distribute(other, s, Config{Ranks: 1, GPUsPerRank: 1}); err == nil {
		t.Fatal("accepted mismatched separation")
	}
}

func TestDistributeMoreGPUsThanVertices(t *testing.T) {
	el := gen.Path(3)
	s := Separate(el, 100)
	sg, err := Distribute(el, s, Config{Ranks: 4, GPUsPerRank: 2})
	if err != nil {
		t.Fatal(err)
	}
	var stored int64
	for _, g := range sg.GPUs {
		stored += g.NN.M() + g.ND.M() + g.DN.M() + g.DD.M()
	}
	if stored != el.M() {
		t.Fatalf("stored %d, want %d", stored, el.M())
	}
}

func BenchmarkDistributeScale14(b *testing.B) {
	el := rmat.Generate(rmat.DefaultParams(14))
	s := Separate(el, 32)
	cfg := Config{Ranks: 4, GPUsPerRank: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distribute(el, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributeLevels times the distributor's two levels apart on the
// rmat16-mutable shape (RMAT scale 16, 8 ranks × 2 GPUs, the suggested
// threshold): "route" is Algorithm 1 into per-GPU buckets, "build" the
// per-GPU CSRs from them, with no previous epoch to share.
func BenchmarkDistributeLevels(b *testing.B) {
	el := rmat.Generate(rmat.DefaultParams(16))
	cfg := Config{Ranks: 8, GPUsPerRank: 2}
	deg := el.OutDegrees()
	sep := SeparateDegrees(deg, SuggestThreshold(deg, 4*el.N/int64(cfg.P())))
	sg, err := Distribute(el, sep, cfg)
	if err != nil {
		b.Fatal(err)
	}
	workers := graph.BuildWorkers()
	b.Run("route", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := route(el, sep, cfg, sg.DelegateOutDeg, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build", func(b *testing.B) {
		buckets, err := route(el, sep, cfg, sg.DelegateOutDeg, workers)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			build(sg, buckets, nil, workers)
		}
	})
}
