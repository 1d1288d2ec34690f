package core

import (
	"fmt"
	"testing"

	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// TestHierarchicalFlatEquivalence is the property test of the two-level
// exchange: across GPUs-per-rank {1,2,3,4} × rank counts {3,4,6,8} ×
// strategies × pipelining, the hierarchical default (one merged message per
// destination rank) and the flat ablation (one fragment per source GPU) are
// bit-identical on levels and parents, ship the same raw id volume, and obey
// the message-count identity flat = GPUsPerRank × hierarchical for the fixed
// strategies (the hybrid policy may pick different strategies per iteration
// under the two timing models, so only bit-identity binds it).
func TestHierarchicalFlatEquivalence(t *testing.T) {
	scales := []int{10}
	if !testing.Short() {
		scales = append(scales, 12)
	}
	rankCounts := []int{3, 4, 6, 8}
	gpusPerRank := []int{1, 2, 3, 4}
	configs := []struct {
		name  string
		strat Exchange
		pipe  bool
	}{
		{"allpairs", ExchangeAllPairs, false},
		{"butterfly-seq", ExchangeButterfly, false},
		{"butterfly-pipe", ExchangeButterfly, true},
		{"hybrid-pipe", ExchangeHybrid, true},
	}

	for _, scale := range scales {
		el := rmat.Generate(rmat.DefaultParams(scale))
		th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)
		src := pickSources(el.OutDegrees(), 1, 7)[0]
		for _, ranks := range rankCounts {
			for _, pgpu := range gpusPerRank {
				shape := ClusterShape{Nodes: ranks, RanksPerNode: 1, GPUsPerRank: pgpu}
				for _, cfg := range configs {
					label := fmt.Sprintf("scale=%d shape=%s %s", scale, shape, cfg.name)
					opts := DefaultOptions()
					opts.Compression = wire.ModeAdaptive
					opts.CollectParents = true
					opts.Exchange = cfg.strat
					opts.PipelineHops = cfg.pipe
					opts.WorkAmplification = 1 << 8
					flat := opts
					flat.FlatExchange = true
					rh := runExchange(t, buildPlan(t, el, shape, th, opts), src)
					rf := runExchange(t, buildPlan(t, el, shape, th, flat), src)
					requireIdentical(t, label+" flat vs hier", rh, rf)

					if cfg.strat != ExchangeHybrid {
						// Hybrid may pick different strategies per iteration
						// under the two timing models (butterfly relays change
						// raw volume), so these identities bind fixed
						// strategies only.
						if rh.Wire.RawBytes != rf.Wire.RawBytes {
							t.Fatalf("%s: raw id volume diverged: hier %d vs flat %d bytes",
								label, rh.Wire.RawBytes, rf.Wire.RawBytes)
						}
						want := rh.Exchange.Messages * int64(pgpu)
						if pgpu == 1 {
							want = rh.Exchange.Messages
						}
						if rf.Exchange.Messages != want {
							t.Fatalf("%s: flat sent %d messages, want %d (= %d× hier's %d)",
								label, rf.Exchange.Messages, want, pgpu, rh.Exchange.Messages)
						}
					}
					if pgpu == 1 {
						// Single-GPU ranks have no hierarchy: flat and hier
						// are the same schedule to the last bit.
						if rh.SimSeconds != rf.SimSeconds {
							t.Fatalf("%s: pgpu=1 timing diverged: %g vs %g s",
								label, rh.SimSeconds, rf.SimSeconds)
						}
						if rh.Exchange.NVLinkSeconds != 0 || rf.Exchange.NVLinkSeconds != 0 {
							t.Fatalf("%s: pgpu=1 charged NVLink time (%g / %g s)",
								label, rh.Exchange.NVLinkSeconds, rf.Exchange.NVLinkSeconds)
						}
					} else {
						if rh.Exchange.NVLinkSeconds <= 0 {
							t.Fatalf("%s: hierarchical run charged no NVLink time", label)
						}
						if rf.Exchange.NVLinkSeconds != 0 || rf.Exchange.HiddenNVLinkSeconds != 0 {
							t.Fatalf("%s: flat run charged NVLink time (%g s, %g s hidden)",
								label, rf.Exchange.NVLinkSeconds, rf.Exchange.HiddenNVLinkSeconds)
						}
					}
					if h := rh.Exchange.HiddenNVLinkSeconds; h < 0 || h > rh.Exchange.NVLinkSeconds+1e-12 {
						t.Fatalf("%s: hidden NVLink %g s outside [0, %g]",
							label, h, rh.Exchange.NVLinkSeconds)
					}
					if !cfg.pipe && rh.Exchange.HiddenNVLinkSeconds != 0 {
						t.Fatalf("%s: sequential hops hid %g s of NVLink",
							label, rh.Exchange.HiddenNVLinkSeconds)
					}
				}
			}
		}
	}
}
