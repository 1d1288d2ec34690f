package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/metrics"
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
// traversal the superstep loop serves. Every row was re-hashed when the
// selector's scheme memory and WireStats' count of its hits were deleted: that
// moved the bytes of the K > 1 sweep rows alone, and every other row hashes as
// before with the hit count cut out of its text.
var goldenResults = map[string]string{
	// A run's replay offers only from vertices the traversal proved have a
	// child level (PR 23): against the rows pinned before it, which the same
	// query with the filter forced off still gives bit for bit (/unfiltered),
	// a run row differs in ParentPairs and Wire.Pair*Bytes only (the test
	// checks that too).
	"run/allpairs/off/1":                  "55bb6d5acc5df0da",
	"run/allpairs/off/1/unfiltered":       "3db030dce7fe4d61",
	"run/allpairs/off/2":                  "90d218c376ed0782",
	"run/allpairs/off/2/unfiltered":       "265c9345c3746782",
	"run/allpairs/adaptive/1":             "c6c7f85781951720",
	"run/allpairs/adaptive/1/unfiltered":  "fd707848329285b4",
	"run/allpairs/adaptive/2":             "52aefc121a618c9f",
	"run/allpairs/adaptive/2/unfiltered":  "a6280a8644f04edb",
	"run/butterfly/off/1":                 "c7bf7f25e809c165",
	"run/butterfly/off/1/unfiltered":      "3068d495e3e603fa",
	"run/butterfly/off/2":                 "62a2a98869e36b38",
	"run/butterfly/off/2/unfiltered":      "acf5a3e48c5c9620",
	"run/butterfly/adaptive/1":            "5515e21585b526df",
	"run/butterfly/adaptive/1/unfiltered": "49241322a116161c",
	"run/butterfly/adaptive/2":            "1b3f046053a89284",
	"run/butterfly/adaptive/2/unfiltered": "56d54f183f3edcb4",
	"run/hybrid/off/1":                    "5a7c9ef1ab81252b",
	"run/hybrid/off/1/unfiltered":         "4f19ffa6d8ac9777",
	"run/hybrid/off/2":                    "2b4ecd3779458e27",
	"run/hybrid/off/2/unfiltered":         "8381b1570953bea0",
	"run/hybrid/adaptive/1":               "0f60acd439c6057e",
	"run/hybrid/adaptive/1/unfiltered":    "2f3abc8e35e933a3",
	"run/hybrid/adaptive/2":               "00f8ba415ec0ce22",
	"run/hybrid/adaptive/2/unfiltered":    "76c87d21cc0f45ae",
	"sweep/1":                             "7f471106613c4117",
	"sweep/8":                             "3cf388b221070b27",
	"sweep/65":                            "3e2ec74f9d4b1740",
	"sweep/butterfly/8":                   "c55b92be7be21bcd",
	"sweep/hybrid/8":                      "ff96f43ae02f422c",
	// The repairs through Plan.Repair, which patches the prior tree, and
	// through the frozen RunRepair, which resolves it from nothing: the same
	// wave, so each pair of rows differs in ParentPairs and Wire.Pair*Bytes
	// only (the test checks that too). The codec-active rows were re-hashed
	// when the probe began to ride the all-pairs id round, which encodes and
	// frames it like any id message: only their SimSeconds and Parts moved
	// (goldenCut). The patching rows were re-hashed again when the patch's
	// delegate candidates left its first pair round for the reduce-scatter
	// every tree's candidates meet in: only their ParentPairs and
	// Wire.Pair*Bytes moved (goldenPairCut).
	"repair":               "a4d50f732ae72bbe",
	"repair/RunRepair":     "ff726a8711d57d57",
	"repair/off":           "7ffa5053149c14a1",
	"repair/off/RunRepair": "a10be0013623c03d",
}

// goldenCut is what the codec-active repair rows hashed with SimSeconds and
// Parts cut out (cutDigest) before their probe rode the all-pairs id round —
// with the pair counters they read then (pairsBefore) — and
// remoteNormalBefore what their Parts.RemoteNormal read then, for the log
// beside what it reads now. goldenPairCut is what the patching rows hash with
// ParentPairs and Wire.Pair*Bytes cut out (pairCutDigest), the same before
// and after the patch's delegate candidates moved from its first pair round
// to the reduce-scatter, and pairsBefore what those three read before it.
var (
	goldenCut = map[string]string{
		"repair":           "f6a1aa4e8344d2f5",
		"repair/RunRepair": "bd10dcd96d226825",
	}
	remoteNormalBefore = map[string]float64{
		"repair":           1.2024244344534086e-05,
		"repair/RunRepair": 1.2024244344534086e-05,
	}
	goldenPairCut = map[string]string{
		"repair":     "b38c712dda077acf",
		"repair/off": "1b1af6d3c819b90c",
	}
	pairsBefore = map[string][3]int64{
		"repair":     {499, 3096, 1545},
		"repair/off": {512, 5172, 5172},
	}
)

// withPairs returns a copy of r whose ParentPairs, Wire.PairRawBytes and
// Wire.PairWireBytes read pairs.
func withPairs(r *metrics.RunResult, pairs [3]int64) *metrics.RunResult {
	c := *r
	c.ParentPairs, c.Wire.PairRawBytes, c.Wire.PairWireBytes = pairs[0], pairs[1], pairs[2]
	return &c
}

// pairCutDigest is resultDigest with the resolution's pair counters cut out.
func pairCutDigest(r *metrics.RunResult) string { return resultDigest(withPairs(r, [3]int64{})) }

// cutDigest is resultDigest with the modelled clock's totals, SimSeconds and
// Parts, cut out of every result.
func cutDigest(results ...*metrics.RunResult) string {
	cut := make([]*metrics.RunResult, len(results))
	for i, r := range results {
		c := *r
		c.SimSeconds, c.Parts = 0, metrics.Breakdown{}
		cut[i] = &c
	}
	return resultDigest(cut...)
}

// wireBefore is what a row's byte counters — Wire.RawBytes,
// Wire.CompressedBytes, Exchange.ForwardedBytes, Wire.CodecBytes summed over
// its results — read before they last moved, for the log beside what they
// read now: the codec-active run and repair rows while the exchange carried
// multisets, and the K > 1 sweep rows while the selector pinned a remembered
// scheme onto a block of a similar size. The off rows never moved.
var wireBefore = map[string][4]int64{
	"run/allpairs/adaptive/1":  {1296, 2129, 0, 3096},
	"run/allpairs/adaptive/2":  {1296, 3924, 0, 3096},
	"run/butterfly/adaptive/1": {2352, 1633, 1056, 5208},
	"run/butterfly/adaptive/2": {2352, 2318, 1056, 5208},
	"run/hybrid/adaptive/1":    {2352, 1633, 1056, 5208},
	"run/hybrid/adaptive/2":    {2352, 2318, 1056, 5208},
	"repair":                   {844, 303, 0, 1696},
	"sweep/8":                  {2792, 2120, 0, 5592},
	"sweep/65":                 {6630, 8580, 0, 13260},
	"sweep/butterfly/8":        {6336, 5272, 2624, 12672},
	"sweep/hybrid/8":           {3864, 3800, 152, 7728},
}

// logWire prints a row's byte counters, summed over results, beside what they
// read before they last moved (wireBefore).
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
		logWire(t, tc.name, results...)
		check(tc.name, results...)
	}

	// The repairs, on the epoch a mixed delta produced: hybrid with the adaptive
	// codec on 1×2×2, and what the rmat16-mutable host workload repairs with
	// (all-pairs, codec and U off) on its 4×2×2 shape.
	source := repairSource(el)
	b := delta.Synthesize(el, 0.02, delta.KindMixed, 42)
	for _, tc := range []struct {
		name  string
		shape ClusterShape
		x     Exchange
		mode  wire.Mode
	}{
		{"repair", ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2}, ExchangeHybrid, wire.ModeAdaptive},
		{"repair/off", ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}, ExchangeAllPairs, wire.ModeOff},
	} {
		opts := repairOptions()
		opts.Exchange = tc.x
		opts.Compression = tc.mode
		prior, p2 := nextEpoch(t, el, tc.shape, 32, opts, source, b)
		invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
		rep, err := p2.Repair(ctx, Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}, invalid, b.Inserts, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := p2.RunRepair(ctx, source, prior.Levels, invalid, seeds, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		logWire(t, tc.name, rep)
		for _, row := range []struct {
			name string
			r    *metrics.RunResult
		}{{tc.name, rep}, {tc.name + "/RunRepair", wrapped}} {
			check(row.name, row.r)
			if want, moved := goldenPairCut[row.name]; moved {
				if got := pairCutDigest(row.r); got != want {
					t.Errorf("%s: digest %s with ParentPairs and Wire.Pair*Bytes cut, golden %s", row.name, got, want)
				}
			}
			if want, moved := goldenCut[row.name]; moved {
				r := row.r
				if was, ok := pairsBefore[row.name]; ok {
					r = withPairs(r, was)
				}
				if got := cutDigest(r); got != want {
					t.Errorf("%s: digest %s with SimSeconds and Parts cut, golden %s", row.name, got, want)
				}
				t.Logf("%s: Parts.RemoteNormal %v → %v", row.name, remoteNormalBefore[row.name], row.r.Parts.RemoteNormal)
			}
		}
		if rep.ParentPairs >= wrapped.ParentPairs {
			t.Errorf("%s: the patch sent %d pairs, the full resolution %d: nothing was patched", tc.name, rep.ParentPairs, wrapped.ParentPairs)
		}
		requireSameButPairs(t, tc.name+": Repair and RunRepair", rep, wrapped)
		was := pairsBefore[tc.name]
		t.Logf("%s: ParentPairs %d → %d (RunRepair %d), Wire.PairRawBytes %d → %d (%d), Wire.PairWireBytes %d → %d (%d)", tc.name,
			was[0], rep.ParentPairs, wrapped.ParentPairs, was[1], rep.Wire.PairRawBytes, wrapped.Wire.PairRawBytes, was[2], rep.Wire.PairWireBytes, wrapped.Wire.PairWireBytes)
	}
}
