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
// before with the hit count cut out of its text. Every row that collects
// parents with a codec active — the adaptive run rows, every sweep row and the
// two codec-active repair rows — was re-hashed when the pairs codec's varint
// delta scheme gave way to the bit-packed one: Wire.PairWireBytes moved, and
// only down, and nothing else did (pairBefore).
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
	"run/allpairs/adaptive/1":             "0a24093500d5ab7d",
	"run/allpairs/adaptive/1/unfiltered":  "7822a34eb38b7c8d",
	"run/allpairs/adaptive/2":             "e1a8b682aaf918a4",
	"run/allpairs/adaptive/2/unfiltered":  "55af4d0e69bb0f8e",
	"run/butterfly/off/1":                 "c7bf7f25e809c165",
	"run/butterfly/off/1/unfiltered":      "3068d495e3e603fa",
	"run/butterfly/off/2":                 "62a2a98869e36b38",
	"run/butterfly/off/2/unfiltered":      "acf5a3e48c5c9620",
	"run/butterfly/adaptive/1":            "5d296546e830c66f",
	"run/butterfly/adaptive/1/unfiltered": "4804dcc2ee669eb0",
	"run/butterfly/adaptive/2":            "d8d7732ad6725cdf",
	"run/butterfly/adaptive/2/unfiltered": "3bce1f02729100a1",
	"run/hybrid/off/1":                    "5a7c9ef1ab81252b",
	"run/hybrid/off/1/unfiltered":         "4f19ffa6d8ac9777",
	"run/hybrid/off/2":                    "2b4ecd3779458e27",
	"run/hybrid/off/2/unfiltered":         "8381b1570953bea0",
	"run/hybrid/adaptive/1":               "a6d57f4d294bd801",
	"run/hybrid/adaptive/1/unfiltered":    "de912a070464a8ea",
	"run/hybrid/adaptive/2":               "4c3d1c575533f060",
	"run/hybrid/adaptive/2/unfiltered":    "84b39b2ba2b12ae8",
	"sweep/1":                             "f45368dc8c0b0c3f",
	"sweep/8":                             "cb5dd7d87505ae09",
	"sweep/65":                            "59abf9abc00fcf09",
	"sweep/butterfly/8":                   "e5edec8832fa7c4b",
	"sweep/hybrid/8":                      "95d33ba4899df2b1",
	// The repairs through Plan.Repair, which patches the prior tree, and
	// through the frozen RunRepair, which resolves it from nothing: the same
	// wave, so each pair of rows differs in ParentPairs and Wire.Pair*Bytes
	// only (the test checks that too). Re-hashed when the wave began at the
	// invalidated vertices, each at its tentative level, and at the inserts
	// that shorten a path, instead of at every valid neighbor of an
	// invalidated vertex and every insert endpoint: only traversal-side fields
	// moved (repairBefore).
	"repair":               "1b58a284b7f1e92f",
	"repair/RunRepair":     "7d70e9f0e37b7a3a",
	"repair/off":           "d1826b242f37816e",
	"repair/off/RunRepair": "dee684b9e6ae3efc",
}

// pairBefore is what every row that collects parents with a codec active read
// before the pairs codec's varint delta scheme gave way to the bit-packed one:
// its Wire.PairWireBytes summed over its results, and the digest of its
// results with that field cut (pairCutDigest). Only the pair bytes may move,
// and only down: the test holds each row's cut digest to this one and its
// pair bytes to at most these. The off rows and the repair/off rows send raw
// pair blocks and never moved.
var pairBefore = map[string]struct {
	wire int64
	cut  string
}{
	"run/allpairs/adaptive/1":             {725, "5ce4906eb1c3b141"},
	"run/allpairs/adaptive/1/unfiltered":  {2230, "49c6434f6e96d2a9"},
	"run/allpairs/adaptive/2":             {1081, "fa6c120ea952c069"},
	"run/allpairs/adaptive/2/unfiltered":  {2590, "69f182b242469d32"},
	"run/butterfly/adaptive/1":            {725, "b619b62c5e6bf867"},
	"run/butterfly/adaptive/1/unfiltered": {2230, "a92117b867318744"},
	"run/butterfly/adaptive/2":            {1081, "ead288bc1067e362"},
	"run/butterfly/adaptive/2/unfiltered": {2590, "7469474b0bdf592d"},
	"run/hybrid/adaptive/1":               {725, "4ae0dfe1afab2fdd"},
	"run/hybrid/adaptive/1/unfiltered":    {2230, "08dc3591a5364470"},
	"run/hybrid/adaptive/2":               {1081, "1b96f7b070a9cc4b"},
	"run/hybrid/adaptive/2/unfiltered":    {2590, "b7db282328f82e0b"},
	"sweep/1":                             {1128, "f4262e56548e93f1"},
	"sweep/8":                             {2864, "01e8b22763b74503"},
	"sweep/65":                            {7865, "28c09d0a30155bca"},
	"sweep/butterfly/8":                   {4112, "6c1302536761f0b5"},
	"sweep/hybrid/8":                      {4112, "7651ed97a4c1a812"},
	"repair":                              {1468, "6b9002368e85ce04"},
	"repair/RunRepair":                    {3920, "c93f1719f818c827"},
}

// pairCutDigest is resultDigest with every result's Wire.PairWireBytes cut
// out, and the cut bytes' sum.
func pairCutDigest(results ...*metrics.RunResult) (string, int64) {
	var sum int64
	cut := make([]*metrics.RunResult, len(results))
	for i, r := range results {
		c := *r
		sum += c.Wire.PairWireBytes
		c.Wire.PairWireBytes = 0
		cut[i] = &c
	}
	return resultDigest(cut...), sum
}

// treeSide is what a repair row reads outside its traversal: its tree
// (treeDigest of Levels and Parents), its resolution's pair counters
// (ParentPairs, Wire.PairRawBytes, Wire.PairWireBytes) and the digest of the
// whole result with every traversal-side field cut out (untraversedDigest).
type treeSide struct {
	tree  string
	pairs [3]int64
	rest  string
}

// repairBefore is what the repair rows read on the tree side before their
// wave began where a level can change; the test holds them to it field by
// field, so the re-hash moved traversal-side fields only.
var repairBefore = map[string]treeSide{
	"repair":               {"16d45564c55ce2d5", [3]int64{486, 2940, 1468}, "8939dad59548914e"},
	"repair/RunRepair":     {"16d45564c55ce2d5", [3]int64{958, 8112, 3920}, "189a9d51772f5751"},
	"repair/off":           {"16d45564c55ce2d5", [3]int64{486, 4860, 4860}, "7d055b1bca7d81d0"},
	"repair/off/RunRepair": {"16d45564c55ce2d5", [3]int64{1186, 13344, 13344}, "5307706900e03fdc"},
}

// treeDigest hashes a result's levels and parents.
func treeDigest(r *metrics.RunResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v\n%v\n", r.Levels, r.Parents)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// untraversedDigest is resultDigest with every field the traversal writes
// cut out: the superstep count and rows, the modelled clock, the edges
// scanned, the duplicates removed, the delegate rounds, the exchange's
// statistics and every wire counter but the resolution's pair bytes.
func untraversedDigest(r *metrics.RunResult) string {
	c := *r
	c.Iterations, c.SimSeconds, c.EdgesScanned, c.DupsRemoved = 0, 0, 0, 0
	c.Parts, c.PerIteration, c.DelegateComms, c.Exchange = metrics.Breakdown{}, nil, 0, metrics.ExchangeStats{}
	c.Wire = metrics.WireStats{Enabled: r.Wire.Enabled, PairRawBytes: r.Wire.PairRawBytes, PairWireBytes: r.Wire.PairWireBytes}
	return resultDigest(&c)
}

// wireBefore is what a row's byte counters — Wire.RawBytes,
// Wire.CompressedBytes, Exchange.ForwardedBytes, Wire.CodecBytes summed over
// its results — read before they last moved, for the log beside what they
// read now: the codec-active run rows while the exchange carried multisets,
// the K > 1 sweep rows while the selector pinned a remembered scheme onto a
// block of a similar size, and the repair rows before their wave began where
// a level can change. The other off rows never moved.
var wireBefore = map[string][4]int64{
	"run/allpairs/adaptive/1":  {1296, 2129, 0, 3096},
	"run/allpairs/adaptive/2":  {1296, 3924, 0, 3096},
	"run/butterfly/adaptive/1": {2352, 1633, 1056, 5208},
	"run/butterfly/adaptive/2": {2352, 2318, 1056, 5208},
	"run/hybrid/adaptive/1":    {2352, 1633, 1056, 5208},
	"run/hybrid/adaptive/2":    {2352, 2318, 1056, 5208},
	"repair":                   {772, 283, 0, 1624},
	"repair/off":               {1364, 1364, 0, 0},
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
		if was, moved := pairBefore[name]; moved {
			cut, wire := pairCutDigest(results...)
			if cut != was.cut {
				t.Errorf("%s: digest %s with Wire.PairWireBytes cut, before %s", name, cut, was.cut)
			}
			if wire > was.wire {
				t.Errorf("%s: Wire.PairWireBytes %d, above the %d before", name, wire, was.wire)
			}
			t.Logf("%s: Wire.PairWireBytes %d → %d", name, was.wire, wire)
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
			// The tree side as it read before the pair bytes moved: the
			// pairBefore check above holds everything but those bytes.
			was, r := repairBefore[row.name], row.r
			if pb, moved := pairBefore[row.name]; moved {
				c := *r
				c.Wire.PairWireBytes = pb.wire
				r = &c
			}
			if got := treeDigest(r); got != was.tree {
				t.Errorf("%s: tree digest %s, before %s", row.name, got, was.tree)
			}
			if got := [3]int64{r.ParentPairs, r.Wire.PairRawBytes, r.Wire.PairWireBytes}; got != was.pairs {
				t.Errorf("%s: ParentPairs, Wire.PairRawBytes, Wire.PairWireBytes %v, before %v", row.name, got, was.pairs)
			}
			if got := untraversedDigest(r); got != was.rest {
				t.Errorf("%s: digest %s with the traversal-side fields cut, before %s", row.name, got, was.rest)
			}
		}
		if rep.ParentPairs >= wrapped.ParentPairs {
			t.Errorf("%s: the patch sent %d pairs, the full resolution %d: nothing was patched", tc.name, rep.ParentPairs, wrapped.ParentPairs)
		}
		requireSameButPairs(t, tc.name+": Repair and RunRepair", rep, wrapped)
		t.Logf("%s: EdgesScanned %d (RunRepair %d), SimSeconds %v, Iterations %d", tc.name, rep.EdgesScanned, wrapped.EdgesScanned, rep.SimSeconds, rep.Iterations)
	}
}
