package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// resultDigest hashes everything a RunResult reports except the level and
// parent arrays (the bit-identity suites own those): every Wire, Exchange,
// Parts and PerIteration field and the scalar counters. %+v prints a float64
// in its shortest round-tripping form, so the digest moves whenever a single
// bit of the modelled clock does.
func resultDigest(results ...*metrics.RunResult) string {
	h := sha256.New()
	for _, r := range results {
		c := *r
		c.Levels, c.Parents = nil, nil
		fmt.Fprintf(h, "%+v\n", c)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// goldenResults were generated on the commit before the sweep moved onto
// runRank (PR 16) — the filtered run rows on PR 23, the adaptive run rows and
// both repair rows on PR 24, when a codec-active exchange began to carry sets
// (every off row and every all-pairs sweep row is older: the uncompressed
// exchange and the sweep's records ship what they always did, and PR 25 moved
// those records onto the run's exchangers without moving a byte), the
// butterfly and hybrid sweep rows on PR 25 — and pin the statistics no
// other test or BENCH cell reads — Wire.MaskRawBytes/MaskWireBytes, the
// per-iteration codec/NVLink split, the calibration EWMAs — across every
// traversal the superstep loop serves.
var goldenResults = map[string]string{
	// A run's replay offers only from vertices the traversal proved have a
	// child level (PR 23): against the rows pinned before it, which the same
	// query with the filter forced off still gives bit for bit (/unfiltered),
	// a run row differs in ParentPairs and Wire.Pair*Bytes only (the test
	// checks that too).
	"run/allpairs/off/1":                  "f1b1fc00b969f0a3",
	"run/allpairs/off/1/unfiltered":       "a2f7c1a86c8ac785",
	"run/allpairs/off/2":                  "e5fec2a36c7b5f3c",
	"run/allpairs/off/2/unfiltered":       "dc772ed545039eea",
	"run/allpairs/adaptive/1":             "22c200a01213f011",
	"run/allpairs/adaptive/1/unfiltered":  "e6e93c3d8ec79bd2",
	"run/allpairs/adaptive/2":             "fa4041169ba1720c",
	"run/allpairs/adaptive/2/unfiltered":  "0b35a2e814afbf16",
	"run/butterfly/off/1":                 "447a09ba0961267f",
	"run/butterfly/off/1/unfiltered":      "269dfd6507006cb9",
	"run/butterfly/off/2":                 "e7736a2d51865ec7",
	"run/butterfly/off/2/unfiltered":      "6ee5274616b29c73",
	"run/butterfly/adaptive/1":            "e5478a2335423f4a",
	"run/butterfly/adaptive/1/unfiltered": "c982da59fbe4998c",
	"run/butterfly/adaptive/2":            "4952ab02a64f8adc",
	"run/butterfly/adaptive/2/unfiltered": "662d4bf619fbcb82",
	"run/hybrid/off/1":                    "d81f30d643447e1e",
	"run/hybrid/off/1/unfiltered":         "2dc5d2452ad3db4b",
	"run/hybrid/off/2":                    "236f8af86f579aa7",
	"run/hybrid/off/2/unfiltered":         "d617f5df1482774f",
	"run/hybrid/adaptive/1":               "9f2da1e03e5e1f7c",
	"run/hybrid/adaptive/1/unfiltered":    "8abcdc5ab487d4fe",
	"run/hybrid/adaptive/2":               "3f95c82165151f42",
	"run/hybrid/adaptive/2/unfiltered":    "657b6da375a2b5ca",
	"sweep/1":                             "5a8569b23a43a711",
	"sweep/8":                             "0bab67222146fb10",
	"sweep/65":                            "b64907b3c494721b",
	"sweep/butterfly/8":                   "36c20297a0d7d635",
	"sweep/hybrid/8":                      "f1b62aa13783d601",
	// The repair through Plan.Repair, which patches the prior tree, and through
	// the frozen RunRepair, which resolves it from nothing: the same wave, so
	// the two rows differ in ParentPairs and Wire.Pair*Bytes only (the test
	// checks that too).
	"repair":           "7fbbb88a78b1401a",
	"repair/RunRepair": "39353980f8ec7218",
}

// wireBefore is what the codec-active rows read on PR 23, when the exchange
// carried multisets — Wire.RawBytes, Wire.CompressedBytes,
// Exchange.ForwardedBytes, Wire.CodecBytes summed over a row's results — for
// the log beside what they read now. The off rows never moved: their digests
// are PR 23's.
var wireBefore = map[string][4]int64{
	"run/allpairs/adaptive/1":  {1296, 2129, 0, 3096},
	"run/allpairs/adaptive/2":  {1296, 3924, 0, 3096},
	"run/butterfly/adaptive/1": {2352, 1633, 1056, 5208},
	"run/butterfly/adaptive/2": {2352, 2318, 1056, 5208},
	"run/hybrid/adaptive/1":    {2352, 1633, 1056, 5208},
	"run/hybrid/adaptive/2":    {2352, 2318, 1056, 5208},
	"repair":                   {844, 303, 0, 1696},
}

// logWire prints the byte counters a set-carrying exchange moves, summed over
// results, beside what the same rows read on PR 23 (wireBefore).
func logWire(t *testing.T, name string, results ...*metrics.RunResult) {
	t.Helper()
	var now [4]int64
	for _, r := range results {
		now[0] += r.Wire.RawBytes
		now[1] += r.Wire.CompressedBytes
		now[2] += r.Exchange.ForwardedBytes
		now[3] += r.Wire.CodecBytes
	}
	was, moved := wireBefore[name]
	if !moved {
		was = now
	}
	t.Logf("%s: Wire.RawBytes %d → %d, CompressedBytes %d → %d, Exchange.ForwardedBytes %d → %d, Wire.CodecBytes %d → %d",
		name, was[0], now[0], was[1], now[1], was[2], now[2], was[3], now[3])
}

func TestGoldenRunResults(t *testing.T) {
	ctx := context.Background()
	el := rmat.Generate(rmat.DefaultParams(10))
	check := func(name string, results ...*metrics.RunResult) {
		t.Helper()
		if got, want := resultDigest(results...), goldenResults[name]; got != want {
			t.Errorf("%s: digest %s, golden %s", name, got, want)
		}
	}

	for _, x := range []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid} {
		for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
			for _, pgpu := range []int{1, 2} {
				opts := DefaultOptions()
				opts.CollectParents = true
				opts.Exchange = x
				opts.Compression = mode
				p := buildPlan(t, el, ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: pgpu}, 16, opts)
				name := fmt.Sprintf("run/%s/%s/%d", x, mode, pgpu)
				var results, unfiltered []*metrics.RunResult
				for _, src := range delegateAndNormalSources(p.sg.Sep) {
					res, err := p.Run(ctx, src, Overrides{})
					if err != nil {
						t.Fatal(err)
					}
					results = append(results, res)
					all := runUnfiltered(t, p, src, Overrides{})
					unfiltered = append(unfiltered, all)
					requireSameButPairs(t, name, res, all)
					t.Logf("%s src %d: ParentPairs %d (unfiltered %d), Wire.PairRawBytes %d (%d), Wire.PairWireBytes %d (%d)", name, src,
						res.ParentPairs, all.ParentPairs, res.Wire.PairRawBytes, all.Wire.PairRawBytes, res.Wire.PairWireBytes, all.Wire.PairWireBytes)
				}
				logWire(t, name, results...)
				check(name, results...)
				check(name+"/unfiltered", unfiltered...)
			}
		}
	}

	// A sweep reports no mask-codec bytes, no per-iteration rows, and the
	// strategy "sweep", whatever the loop underneath records.
	sweepOpts := DefaultOptions()
	sweepOpts.CollectParents = true
	sweepOpts.Compression = wire.ModeAdaptive
	// Since PR 25 a sweep rides the exchange the query asks for: the all-pairs
	// rows are older than that; the butterfly and hybrid rows are its own, on
	// six ranks of two GPUs (cleanup hops, the NVLink tier) amplified until
	// the hybrid mixes the two.
	sp := buildPlan(t, el, ClusterShape{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2}, 16, sweepOpts)
	sweepOpts.WorkAmplification = 64
	xp := buildPlan(t, el, ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}, 16, sweepOpts)
	for _, tc := range []struct {
		name string
		p    *Plan
		k    int
		x    Exchange
	}{
		{"sweep/1", sp, 1, ExchangeAllPairs}, {"sweep/8", sp, 8, ExchangeAllPairs}, {"sweep/65", sp, 65, ExchangeAllPairs},
		{"sweep/butterfly/8", xp, 8, ExchangeButterfly}, {"sweep/hybrid/8", xp, 8, ExchangeHybrid},
	} {
		results, err := tc.p.RunSweep(ctx, pickSources(el.OutDegrees(), tc.k, 11), Overrides{Exchange: &tc.x})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Wire.MaskRawBytes != 0 || r.Wire.MaskWireBytes != 0 || r.PerIteration != nil || r.Exchange.Strategy != "sweep" {
				t.Fatalf("%s: mask bytes %d/%d, %d per-iteration rows, strategy %q",
					tc.name, r.Wire.MaskRawBytes, r.Wire.MaskWireBytes, len(r.PerIteration), r.Exchange.Strategy)
			}
		}
		if st := results[0].Exchange; tc.x != ExchangeAllPairs && (st.ButterflyIterations == 0 || st.ForwardedBytes == 0 || (tc.x == ExchangeHybrid) != (st.AllPairsIterations > 0)) {
			t.Fatalf("%s: %d all-pairs and %d butterfly supersteps, %d bytes forwarded", tc.name, st.AllPairsIterations, st.ButterflyIterations, st.ForwardedBytes)
		}
		check(tc.name, results...)
	}

	// One repair, on the epoch a mixed delta produced.
	shape := ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}
	opts := repairOptions()
	opts.Exchange = ExchangeHybrid
	opts.Compression = wire.ModeAdaptive
	source := repairSource(el)
	p1 := buildPlan(t, el, shape, 32, opts)
	prior, err := p1.Run(ctx, source, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	b := delta.Synthesize(el, 0.02, delta.KindMixed, 42)
	el2, err := delta.Apply(el, b)
	if err != nil {
		t.Fatal(err)
	}
	sg2, _, err := partition.DistributeIncremental(el2, partition.Separate(el2, 32), shape.PartitionConfig(), p1.sg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlanEpoch(sg2, shape, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
	rep, err := p2.Repair(ctx, Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}, invalid, b.Inserts, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	logWire(t, "repair", rep)
	check("repair", rep)
	wrapped, err := p2.RunRepair(ctx, source, prior.Levels, invalid, seeds, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	check("repair/RunRepair", wrapped)
	if rep.ParentPairs >= wrapped.ParentPairs {
		t.Errorf("the patch sent %d pairs, the full resolution %d: nothing was patched", rep.ParentPairs, wrapped.ParentPairs)
	}
	requireSameButPairs(t, "Repair and RunRepair", rep, wrapped)
	t.Logf("repair: ParentPairs %d (RunRepair %d), Wire.PairRawBytes %d (%d), Wire.PairWireBytes %d (%d)",
		rep.ParentPairs, wrapped.ParentPairs, rep.Wire.PairRawBytes, wrapped.Wire.PairRawBytes, rep.Wire.PairWireBytes, wrapped.Wire.PairWireBytes)
}
