package gcbfs

import (
	"context"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	g := RMAT(10)
	if g.NumVertices() != 1024 || g.NumEdges() != 1024*32 {
		t.Fatalf("graph sizes: %d/%d", g.NumVertices(), g.NumEdges())
	}
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}))
	if err != nil {
		t.Fatal(err)
	}
	src := Sources(g, 1, 7)[0]
	res, err := svc.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.GTEPS <= 0 || res.Iterations <= 1 {
		t.Fatalf("res = %+v", res)
	}
	if err := svc.Validate(res); err != nil {
		t.Fatalf("validation: %v", err)
	}
}

func TestManualGraphConstruction(t *testing.T) {
	g := NewGraph(6)
	g.AddUndirectedEdge(0, 1)
	g.AddUndirectedEdge(1, 2)
	g.AddUndirectedEdge(2, 3)
	g.AddUndirectedEdge(3, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 3, 4, -1}
	for v, w := range want {
		if res.Levels[v] != w {
			t.Fatalf("levels = %v, want %v", res.Levels, want)
		}
	}
	if err := svc.Validate(res); err != nil {
		t.Fatal(err)
	}
}

func TestAutoThreshold(t *testing.T) {
	g := RMAT(10)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if svc.Threshold() <= 0 {
		t.Fatal("auto threshold not set")
	}
	// The 4n/p rule must hold.
	if max := 4 * g.NumVertices() / 16; svc.Delegates() > max {
		t.Fatalf("delegates %d exceed 4n/p=%d", svc.Delegates(), max)
	}
}

func TestExplicitThresholdRespected(t *testing.T) {
	g := RMAT(9)
	cfg := DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 2})
	cfg.Threshold = 40
	svc, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Threshold() != 40 {
		t.Fatalf("threshold = %d", svc.Threshold())
	}
}

func TestMemoryReport(t *testing.T) {
	g := RMAT(12)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}))
	if err != nil {
		t.Fatal(err)
	}
	m := svc.Memory()
	if m.TotalBytes <= 0 || m.MaxGPUBytes <= 0 {
		t.Fatalf("memory report: %+v", m)
	}
	if m.TotalBytes >= m.EdgeListBytes {
		t.Fatalf("representation (%d) not smaller than edge list (%d)", m.TotalBytes, m.EdgeListBytes)
	}
	slack := int64(8*16 + 16)
	if diff := m.TotalBytes - m.PredictedBytes; diff > slack || diff < -slack {
		t.Fatalf("measured %d vs predicted %d", m.TotalBytes, m.PredictedBytes)
	}
}

func TestRunManyAndGeoMean(t *testing.T) {
	g := RMAT(10)
	svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := svc.RunBatch(context.Background(), Sources(g, 4, 3), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 4 {
		t.Fatalf("got %d results", len(batch.Results))
	}
	if GeoMeanGTEPS(batch.Results) <= 0 {
		t.Fatal("geomean not positive")
	}
}

func TestPlainBFSConfig(t *testing.T) {
	g := RMAT(10)
	cfg := DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 4})
	cfg.DirectionOptimized = false
	svc, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(context.Background(), Sources(g, 1, 5)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Validate(res); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticDatasets(t *testing.T) {
	soc := SocialNetwork(9)
	web := WebGraph(9)
	for _, g := range []*Graph{soc, web} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(g, DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Run(context.Background(), Sources(g, 1, 2)[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Validate(res); err != nil {
			t.Fatal(err)
		}
	}
}

func TestValidateRequiresLevels(t *testing.T) {
	g := RMAT(9)
	cfg := DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 1})
	cfg.CollectLevels = false
	svc, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(context.Background(), Sources(g, 1, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != nil {
		t.Fatal("levels present despite CollectLevels=false")
	}
	if err := svc.Validate(res); err == nil {
		t.Fatal("Validate accepted result without levels")
	}
}

func TestBadClusterRejected(t *testing.T) {
	if _, err := NewService(RMAT(8), DefaultConfig(Cluster{})); err == nil {
		t.Fatal("accepted zero cluster")
	}
}

func TestSourcesDeterministic(t *testing.T) {
	g := RMAT(10)
	a := Sources(g, 5, 42)
	b := Sources(g, 5, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sources not deterministic")
		}
	}
	deg := g.OutDegrees()
	for _, s := range a {
		if deg[s] == 0 {
			t.Fatalf("source %d is isolated", s)
		}
	}
}

// TestCompressionConfig exercises the public Compression knob end to end:
// both modes validate against the serial reference, adaptive reports a wire
// volume below the raw equivalent in a normal-exchange-heavy setup, and every
// other value — the retired forced modes' 2–4 included — is refused by both
// constructors.
func TestCompressionConfig(t *testing.T) {
	g := RMAT(12)
	src := Sources(g, 1, 3)[0]
	var refLevels []int32
	for _, comp := range []Compression{CompressionOff, CompressionAdaptive} {
		cfg := DefaultConfig(Cluster{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1})
		cfg.Threshold = 1 << 20 // all-normal graph: everything rides the exchange
		cfg.Compression = comp
		svc, err := NewService(g, cfg)
		if err != nil {
			t.Fatalf("compression %d: %v", comp, err)
		}
		res, err := svc.Run(context.Background(), src)
		if err != nil {
			t.Fatalf("compression %d: %v", comp, err)
		}
		if err := svc.Validate(res); err != nil {
			t.Fatalf("compression %d: validation: %v", comp, err)
		}
		if comp == CompressionOff {
			refLevels = res.Levels
			if res.WireBytes != res.WireRawBytes {
				t.Fatalf("off: wire bytes %d != raw bytes %d", res.WireBytes, res.WireRawBytes)
			}
		} else {
			for v := range refLevels {
				if res.Levels[v] != refLevels[v] {
					t.Fatalf("compression %d: vertex %d level diverged", comp, v)
				}
			}
		}
		if comp == CompressionAdaptive && res.WireBytes >= res.WireRawBytes {
			t.Fatalf("adaptive: wire bytes %d not below raw %d", res.WireBytes, res.WireRawBytes)
		}
	}

	for _, comp := range []Compression{2, 3, 4, 7, -1} {
		cfg := DefaultConfig(Cluster{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1})
		cfg.Compression = comp
		if _, err := NewService(g, cfg); err == nil {
			t.Fatalf("NewService accepted compression mode %d", comp)
		}
		if _, err := NewMutableService(g, cfg); err == nil {
			t.Fatalf("NewMutableService accepted compression mode %d", comp)
		}
	}
}

// A Config literal that skips DefaultConfig selects no different exchange
// machinery: with the paper's options spelled out it runs the same butterfly
// — pipelined hops hiding codec time — on the same modelled clock as the
// DefaultConfig-derived config.
func TestConfigLiteralRunsTheDefaultExchange(t *testing.T) {
	g := RMAT(12)
	cluster := Cluster{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}
	literal := Config{
		Cluster:            cluster,
		DirectionOptimized: true,
		BlockingReduce:     true,
		CollectLevels:      true,
		Exchange:           ExchangeButterfly,
		Compression:        CompressionAdaptive,
	}
	derived := DefaultConfig(cluster)
	derived.Exchange, derived.Compression = ExchangeButterfly, CompressionAdaptive
	src := Sources(g, 1, 7)[0]
	var results [2]*Result
	for i, cfg := range []Config{literal, derived} {
		svc, err := NewService(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = svc.Run(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	lit, def := results[0], results[1]
	if lit.HiddenCodecSeconds <= 0 {
		t.Fatalf("literal config hid %g s of codec time — its butterfly is not the pipelined one", lit.HiddenCodecSeconds)
	}
	if lit.SimSeconds != def.SimSeconds {
		t.Fatalf("literal config %g s, DefaultConfig-derived %g s", lit.SimSeconds, def.SimSeconds)
	}
}
